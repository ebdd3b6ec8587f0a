(* Wing-Gong over an interval history: repeatedly linearize one minimal
   pending event (no other pending event returns before it is invoked),
   backtracking when the model rejects it. Memoized on the (chosen set,
   model state) pair when the history fits a bitmask; budgeted always,
   with budget exhaustion reported as its own verdict. *)

type 'act event = { invoked : int; returned : int; act : 'act }
type verdict = Linearizable | Rejected | Gave_up

let default_budget = 200_000

exception Out_of_budget

let search ?(budget = default_budget) ~init ~step history =
  let evs =
    Array.of_list (List.stable_sort (fun a b -> compare a.invoked b.invoked) history)
  in
  let n = Array.length evs in
  let taken = Array.make n false in
  let memo = if n <= 61 then Some (Hashtbl.create 256) else None in
  let mask = ref 0 in
  let nodes = ref 0 in
  let rec go remaining st =
    incr nodes;
    if !nodes > budget then raise Out_of_budget;
    if remaining = 0 then true
    else if match memo with Some m -> Hashtbl.mem m (!mask, st) | None -> false then false
    else begin
      let min_ret = ref max_int in
      for i = 0 to n - 1 do
        if (not taken.(i)) && evs.(i).returned < !min_ret then min_ret := evs.(i).returned
      done;
      let ok = ref false in
      let i = ref 0 in
      while (not !ok) && !i < n do
        let e = evs.(!i) in
        if (not taken.(!i)) && e.invoked <= !min_ret then begin
          match step st e.act with
          | Some st' ->
            let j = !i in
            taken.(j) <- true;
            if memo <> None then mask := !mask lor (1 lsl j);
            if go (remaining - 1) st' then ok := true
            else begin
              taken.(j) <- false;
              if memo <> None then mask := !mask land lnot (1 lsl j)
            end
          | None -> ()
        end;
        incr i
      done;
      if not !ok then Option.iter (fun m -> Hashtbl.add m (!mask, st) ()) memo;
      !ok
    end
  in
  match go n init with
  | ok -> ((if ok then Linearizable else Rejected), !nodes)
  | exception Out_of_budget -> (Gave_up, !nodes)
