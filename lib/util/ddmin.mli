(** Span-removal delta debugging over a list, the one shrink loop behind
    every minimized counterexample in the tree: operation sequences
    ([Lfm.Minimize]), chaos campaigns and per-key trace histories.

    Spans start at half the list (at least 1) and halve down to 1. At
    each size the loop walks the list left to right, dropping a span
    whenever the shorter list still fails and otherwise stepping past it.
    No minimality guarantee beyond "no single element can be dropped"
    after the span-1 pass. *)

(** [minimize ~still_fails xs] — [still_fails] must be deterministic and
    hold on [xs]. It is called once per candidate, in a fixed order, so a
    counting predicate measures the search's cost. *)
val minimize : still_fails:('a list -> bool) -> 'a list -> 'a list
