(** Static concurrency & determinism analyzer (ISSUE 7; paper section 8.3).

    Every dynamic checker in this repository — the [Smc] schedule explorer,
    the FastTrack race monitor, the lock-order sanitizer, the racing-domain
    conformance gates — only sees the call sites a harness happens to
    drive. This module closes the blind spot with a whole-tree parsetree
    scan (via [compiler-libs.common]) that checks {e every} call site on
    {e every} build:

    - {b primitive confinement}: raw [Atomic.*]/[Mutex.*]/[Condition.*]/
      [Domain.*] references are allowed only inside the validated-wrapper
      layers ([lib/conc], [lib/par], [lib/smc], [lib/obs]); everything
      else must go through [Conc.Rwlock]/[Conc.Shard_table]-style wrappers
      or carry a waiver;
    - {b static lock-order graph}: [Rwlock.with_read]/[with_write] (real
      and [Model]) and [Shard_table.with_*] acquisition nesting is
      extracted per function, propagated through a name-resolved call
      graph, and the resulting class graph (shard < stack < cache, ...)
      must be acyclic. A dynamic edge list exported by
      [validate --shared --lint-graph] can be cross-checked: every
      dynamically observed edge must appear statically, otherwise the
      extractor is blind;
    - {b determinism lints}: [Random.self_init], wall-clock reads
      ([Unix.gettimeofday]/[Unix.time]/[Sys.time]) and order-fragile
      [Hashtbl.iter]/[Hashtbl.fold] (and [iter]/[fold] of a module the
      file binds to a [Hashtbl.Make] instance) outside their allowlisted homes
      ([bench/], [lib/benchrec], and the sanctioned [Util.Wallclock] /
      [Util.Tbl] helpers via waiver);
    - {b lazy values}: [lazy] expressions and [Lazy.*] in [lib/], because
      OCaml 5 raises [CamlinternalLazy.Undefined] when two domains force
      one suspension at once;
    - {b Obs blind-spot audit}: every metric name referenced by
      [Obs.counter_value]/[Obs.find]/[Coverage.count]/
      [Coverage.blind_spots ~expected] must be registered somewhere in the
      tree by [Obs.counter]/[gauge]/[histogram]/[Coverage.hit]. *)

type finding = {
  rule : string;
      (** ["primitive"], ["lockgraph"], ["random"], ["wallclock"],
          ["hashtbl"], ["lazy"], ["metric"], ["parse"] or ["stale-waiver"] *)
  file : string;  (** repo-relative path, or ["(global)"] for graph-level findings *)
  line : int;  (** 0 for graph-level findings *)
  symbol : string;  (** offending identifier, metric name or ["a->b"] edge *)
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit

(** Everything harvested from one source file. *)
type scan

(** [scan_file ~path ~source] — parse and scan one implementation file.
    [path] must be repo-relative ([lib/store/store.ml]); it selects the
    per-rule allowlists and the file's root module name. Unparseable
    sources yield a single ["parse"] finding instead of raising. *)
val scan_file : path:string -> source:string -> scan

type report = {
  findings : finding list;  (** sorted by file, line, rule *)
  static_edges : (string * string) list;  (** lock-class acquisition edges *)
  edge_sources : ((string * string) * string) list;
      (** one provenance witness per static edge: the function (and
          acquisition line, or call chain) that first contributed it *)
  static_only_edges : (string * string) list;
      (** static edges absent from the dynamic graph: paths the harness
          never exercised (informational, not findings) *)
  files_scanned : int;
  functions : int;
  metrics_registered : int;
  metric_refs : int;
}

(** [analyze ?dynamic_edges scans] — aggregate per-file scans into the
    whole-program report: build function summaries, run the transitive
    lock-set fixpoint, emit the class graph, detect cycles (self-edges on
    classes with a documented internal order — shard, ascending — are
    allowed), cross-check [dynamic_edges] (every dynamic edge must appear
    statically) and audit metric references against registrations. *)
val analyze : ?dynamic_edges:(string * string) list -> scan list -> report

(** {2 Waivers}

    One waiver per line:
    [<rule> <path> <symbol> -- <justification>]. Blank lines and [#]
    comments are skipped. A waiver matches a finding when all three fields
    are equal (the justification is for the reader). Unused waivers are
    reported as ["stale-waiver"] findings so the file cannot rot. *)

type waiver = {
  w_rule : string;
  w_file : string;
  w_symbol : string;
  w_reason : string;
}

(** [parse_waivers source] — [Error msg] on a malformed line. *)
val parse_waivers : string -> (waiver list, string) result

(** [apply_waivers ~waivers findings] — [(kept, stale)]: findings not
    covered by a waiver, and waivers that matched nothing. *)
val apply_waivers : waivers:waiver list -> finding list -> finding list * waiver list

(** {2 Dynamic graph files}

    The [validate --shared --lint-graph FILE] export: one [held acquired]
    class pair per line, [#] comments skipped. *)
val parse_dynamic_graph : string -> (string * string) list

(** {2 Tree driving} *)

(** [collect_files ~root] — repo-relative path and contents of every [.ml]
    file under [lib/], [bin/] and [bench/] (skipping [_build]-style
    directories), sorted by path. [test/] is intentionally out of scope:
    tests drive raw primitives and clocks on purpose. *)
val collect_files : root:string -> (string * string) list

(** [run ~root ?waivers_path ?dynamic_graph_path ()] — scan the tree and
    return the post-waiver findings plus the report and stale waivers.
    [waivers_path] defaults to [<root>/lint/waivers] when that file
    exists. *)
val run :
  root:string ->
  ?waivers_path:string ->
  ?dynamic_graph_path:string ->
  unit ->
  finding list * report * waiver list
