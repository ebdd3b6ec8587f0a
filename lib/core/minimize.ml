type stats = {
  original : Op.summary;
  minimized : Op.summary;
  rounds : int;
  executions : int;
}

let pp_stats fmt s =
  Format.fprintf fmt "%a -> %a (%d rounds, %d executions)" Op.pp_summary s.original
    Op.pp_summary s.minimized s.rounds s.executions

(* Candidate simplifications of one operation, simplest first. Shrinking
   prefers earlier alphabet variants and arguments closer to zero. *)
let simplify_op op =
  match op with
  | Op.Put (k, v) ->
    let n = String.length v in
    if n = 0 then []
    else
      [ Op.Put (k, ""); Op.Put (k, String.make (n / 2) 'a'); Op.Put (k, String.make (n - 1) 'a') ]
  | Op.PutBatch ops -> (
    match ops with
    | [] -> []
    | [ (k, v) ] -> [ Op.Put (k, v) ]
    | _ ->
      let n = List.length ops in
      let front = List.filteri (fun i _ -> i < n / 2) ops in
      let back = List.filteri (fun i _ -> i >= n / 2) ops in
      [
        Op.PutBatch front;
        Op.PutBatch back;
        Op.PutBatch (List.map (fun (k, _) -> (k, "")) ops);
      ])
  | Op.DeleteBatch keys -> (
    match keys with
    | [] -> []
    | [ k ] -> [ Op.Delete k ]
    | _ ->
      let n = List.length keys in
      [
        Op.DeleteBatch (List.filteri (fun i _ -> i < n / 2) keys);
        Op.DeleteBatch (List.filteri (fun i _ -> i >= n / 2) keys);
      ])
  | Op.Pump n -> if n > 1 then [ Op.Pump 1 ] else []
  | Op.FailDiskPermanent e -> [ Op.FailDiskOnce e ]
  | Op.DirtyReboot r ->
    let candidates =
      [
        { Op.flush_index = true; flush_superblock = true; persist_probability = 1.0; split_pages = false };
        { r with Op.split_pages = false };
        { r with Op.persist_probability = 1.0 };
        { r with Op.flush_index = true; flush_superblock = true };
      ]
    in
    List.filter_map (fun c -> if c = r then None else Some (Op.DirtyReboot c)) candidates
  | Op.Scan { lo = None; hi = None } -> []
  | Op.Scan _ -> [ Op.Scan { lo = None; hi = None } ]
  | Op.Get _ | Op.Delete _ | Op.List | Op.IndexFlush | Op.SuperblockFlush | Op.Compact
  | Op.Reclaim | Op.FailDiskOnce _ | Op.HealDisk _ | Op.RemoveFromService
  | Op.ReturnToService | Op.CleanReboot -> []

let minimize ~still_fails ops =
  let executions = ref 0 in
  let test ops =
    incr executions;
    still_fails ops
  in
  (* Pass 1 is Util.Ddmin's span removal; pass 2: per-op argument shrinking. *)
  let simplify_pass ops =
    let arr = Array.of_list ops in
    let changed = ref false in
    Array.iteri
      (fun i op ->
        let rec try_candidates = function
          | [] -> ()
          | c :: rest ->
            let candidate = Array.to_list (Array.mapi (fun j o -> if j = i then c else o) arr) in
            if test candidate then begin
              arr.(i) <- c;
              changed := true;
              (* keep shrinking the same position *)
              try_candidates (simplify_op c)
            end
            else try_candidates rest
        in
        try_candidates (simplify_op op))
      arr;
    (Array.to_list arr, !changed)
  in
  let original = Op.summarize ops in
  let rec fixpoint ops rounds =
    let before = List.length ops in
    let ops = Util.Ddmin.minimize ~still_fails:test ops in
    let ops, changed = simplify_pass ops in
    if (List.length ops < before || changed) && rounds < 8 then fixpoint ops (rounds + 1)
    else (ops, rounds + 1)
  in
  let minimized, rounds = fixpoint ops 0 in
  ( minimized,
    { original; minimized = Op.summarize minimized; rounds; executions = !executions } )
