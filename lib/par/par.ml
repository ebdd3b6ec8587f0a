(* Work-stealing range runner over Domain.spawn. See par.mli for the
   determinism contract; the implementation notes here cover why it holds.

   Each worker owns one atomic cell packing its remaining contiguous
   [lo, hi) index range into a single immediate ((lo lsl 31) lor hi, so no
   allocation and single-word CAS). The owner takes indices from the
   bottom one at a time; a worker whose range is empty steals the upper
   half of the largest remaining range. Consequences:

   - every index is executed exactly once (both take and steal are CASes
     on the whole packed range, so they cannot both win the same indices);
   - the indices an owner takes are consecutive (only the owner advances
     [lo]), so each accumulator covers one contiguous segment, and the
     segments of all workers partition the whole range — sorting them by
     their low end and merging in that order reproduces the sequential
     fold chunked at segment boundaries. *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

(* {2 Packed ranges} *)

let range_mask = (1 lsl 31) - 1
let pack lo hi = (lo lsl 31) lor hi
let lo_of r = r lsr 31
let hi_of r = r land range_mask

let check_bounds ~start ~count =
  if count < 0 then invalid_arg "Par: negative count";
  if start < 0 || start + count > range_mask then
    invalid_arg "Par: index range must fit in [0, 2^31)"

(* [take d] claims the lowest remaining index of [d], if any. *)
let rec take d =
  let r = Atomic.get d in
  let lo = lo_of r and hi = hi_of r in
  if lo >= hi then None
  else if Atomic.compare_and_set d r (pack (lo + 1) hi) then Some lo
  else take d

(* [abandon d] empties [d] ([first]: the whole remaining range is above
   the lowest hit, so nobody needs it). *)
let rec abandon d =
  let r = Atomic.get d in
  let lo = lo_of r and hi = hi_of r in
  if lo < hi && not (Atomic.compare_and_set d r (pack lo lo)) then abandon d

(* [steal deques ~me ~useful] moves the upper half of the largest
   remaining range (of at least 2 indices, so the victim keeps work) into
   [deques.(me)]. [useful lo] filters victims whose work is already known
   to be dead ([first]). Returns false when no such victim exists —
   in-flight single indices cannot be stolen, but their owners never exit
   holding unprocessed work, so nothing is stranded. *)
let rec steal deques ~me ~useful =
  let victim = ref (-1) and victim_size = ref 1 in
  Array.iteri
    (fun j d ->
      if j <> me then begin
        let r = Atomic.get d in
        let size = hi_of r - lo_of r in
        if size > !victim_size && useful (lo_of r) then begin
          victim := j;
          victim_size := size
        end
      end)
    deques;
  if !victim < 0 then false
  else begin
    let d = deques.(!victim) in
    let r = Atomic.get d in
    let lo = lo_of r and hi = hi_of r in
    if hi - lo < 2 then steal deques ~me ~useful
    else begin
      let mid = (lo + hi + 1) / 2 in
      if Atomic.compare_and_set d r (pack lo mid) then begin
        Atomic.set deques.(me) (pack mid hi);
        true
      end
      else steal deques ~me ~useful
    end
  end

(* {2 The pool: worker 0 is the caller, the rest are spawned} *)

let run_pool ~workers body =
  let errors = Array.make workers None in
  let guarded w () =
    try body w
    with e -> errors.(w) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let spawned = Array.init (workers - 1) (fun k -> Domain.spawn (guarded (k + 1))) in
  guarded 0 ();
  Array.iter Domain.join spawned;
  Array.iter
    (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    errors

let initial_deques ~workers ~start ~count =
  Array.init workers (fun w ->
      let lo = start + (w * count / workers) and hi = start + ((w + 1) * count / workers) in
      Atomic.make (pack lo hi))

(* {2 sweep} *)

type 'acc segment = { seg_lo : int; acc : 'acc }

let sweep ?(domains = 1) ~start ~count ~init ~step ~merge () =
  check_bounds ~start ~count;
  if count = 0 then init ()
  else if domains <= 1 then begin
    (* The reference semantics, verbatim. *)
    let acc = ref (init ()) in
    for i = start to start + count - 1 do
      acc := step !acc i
    done;
    !acc
  end
  else begin
    let workers = min domains count in
    let deques = initial_deques ~workers ~start ~count in
    let segments = Array.make workers [] in
    run_pool ~workers (fun me ->
        let my = deques.(me) in
        let rec next_segment () =
          match take my with
          | Some first ->
            (* Own takes are consecutive, so this accumulator covers the
               contiguous segment [first, last-drained]. *)
            let acc = ref (step (init ()) first) in
            let rec drain () =
              match take my with
              | Some i ->
                acc := step !acc i;
                drain ()
              | None -> ()
            in
            drain ();
            segments.(me) <- { seg_lo = first; acc = !acc } :: segments.(me);
            next_segment ()
          | None ->
            if steal deques ~me ~useful:(fun _ -> true) then next_segment ()
        in
        next_segment ());
    let segs =
      Array.to_list segments |> List.concat
      |> List.sort (fun a b -> compare a.seg_lo b.seg_lo)
    in
    match segs with
    | [] -> init () (* unreachable: count > 0 *)
    | s :: rest -> List.fold_left (fun acc s -> merge acc s.acc) s.acc rest
  end

(* {2 first} *)

let first ?(domains = 1) ~start ~count task =
  check_bounds ~start ~count;
  if domains <= 1 || count <= 1 then begin
    let rec go i =
      if i >= start + count then None
      else match task i with Some x -> Some (i, x) | None -> go (i + 1)
    in
    go start
  end
  else begin
    let workers = min domains count in
    let deques = initial_deques ~workers ~start ~count in
    (* The lowest hit found so far. Its index only decreases, so an index
       skipped because it lay above the hit can never be the answer; and
       every index below the final hit was taken while the hit was still
       above it, hence run. *)
    let hit = Atomic.make None in
    let bound () = match Atomic.get hit with Some (j, _) -> j | None -> max_int in
    let rec offer i x =
      match Atomic.get hit with
      | Some (j, _) when j <= i -> ()
      | cur -> if not (Atomic.compare_and_set hit cur (Some (i, x))) then offer i x
    in
    run_pool ~workers (fun me ->
        let my = deques.(me) in
        let useful lo = lo < bound () in
        let rec loop () =
          match take my with
          | Some i ->
            if i < bound () then Option.iter (offer i) (task i) else abandon my;
            loop ()
          | None -> if steal deques ~me ~useful then loop ()
        in
        loop ());
    Atomic.get hit
  end
