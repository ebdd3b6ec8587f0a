type digest = {
  count : int;
  sum : float;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  saturated : bool;
}

(* Quantile = upper bound of the first bucket whose cumulative count
   reaches the rank. The overflow bucket has no finite bound; report the
   largest finite one and flag the digest as saturated. *)
let digest_of_buckets ~count ~sum buckets =
  let finite_max =
    List.fold_left (fun acc (b, _) -> if Float.is_finite b then b else acc) 0.0 buckets
  in
  let saturated = ref false in
  let quantile q =
    let rank = int_of_float (ceil (q *. float_of_int count)) in
    let rec go cum = function
      | [] -> finite_max
      | (bound, n) :: rest ->
        let cum = cum + n in
        if cum >= rank then
          if Float.is_finite bound then bound
          else begin
            saturated := true;
            finite_max
          end
        else go cum rest
    in
    go 0 buckets
  in
  if count = 0 then
    { count = 0; sum = 0.0; mean = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0; saturated = false }
  else
    let p50 = quantile 0.5 and p95 = quantile 0.95 and p99 = quantile 0.99 in
    { count; sum; mean = sum /. float_of_int count; p50; p95; p99; saturated = !saturated }

let latencies obs =
  List.filter_map
    (fun s ->
      match s.Obs.value with
      | Obs.Histogram_v { buckets; count; sum } when count > 0 ->
        let name =
          match s.Obs.labels with
          | [] -> s.Obs.name
          | labels ->
            s.Obs.name ^ "{"
            ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
            ^ "}"
        in
        Some (name, digest_of_buckets ~count ~sum buckets)
      | _ -> None)
    (Obs.snapshot obs)

(* --- repository discovery and HEAD resolution, no subprocess --- *)

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir ".git") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

(* A ref missing from .git/refs (fresh clone, packed repository) lives in
   .git/packed-refs as "<hash> <refname>" lines. *)
let packed_ref git refname =
  match read_file (Filename.concat git "packed-refs") with
  | None -> None
  | Some body ->
    String.split_on_char '\n' body
    |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line (i + 1) (String.length line - i - 1) = refname ->
             Some (String.sub line 0 i)
           | _ -> None)

let resolve_relative ~base path =
  if Filename.is_relative path then Filename.concat base path else path

(* [.git] is a directory in a primary checkout but a one-line
   "gitdir: <path>" file in worktrees and submodules. *)
let git_dir root =
  let dotgit = Filename.concat root ".git" in
  if Sys.is_directory dotgit then Some dotgit
  else
    match read_file dotgit with
    | None -> None
    | Some body ->
      let line = String.trim (first_line body) in
      if String.length line > 7 && String.sub line 0 7 = "gitdir:" then
        Some (resolve_relative ~base:root (String.trim (String.sub line 7 (String.length line - 7))))
      else None

(* A worktree's git dir holds its own HEAD, but refs/ and packed-refs
   live in the primary repository's dir, pointed to by [commondir]. *)
let common_dir git =
  match read_file (Filename.concat git "commondir") with
  | Some body -> resolve_relative ~base:git (String.trim (first_line body))
  | None -> git

let commit ?(dir = Sys.getcwd ()) () =
  match Option.bind (find_root dir) git_dir with
  | None -> "unknown"
  | Some git -> (
    match read_file (Filename.concat git "HEAD") with
    | None -> "unknown"
    | Some head -> (
      let head = String.trim (first_line head) in
      match String.length head > 5 && String.sub head 0 5 = "ref: " with
      | false -> head (* detached HEAD: the hash itself *)
      | true -> (
        let refname = String.trim (String.sub head 5 (String.length head - 5)) in
        let common = common_dir git in
        match read_file (Filename.concat common refname) with
        | Some hash -> String.trim (first_line hash)
        | None -> (
          match packed_ref common refname with Some hash -> hash | None -> "unknown"))))

(* --- JSON encoding: flat records over Obs's escaper and float encoder --- *)

let quoted s = "\"" ^ Obs.json_escape s ^ "\""

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> quoted k ^ ":" ^ v) fields) ^ "}"

let json_digest d =
  json_obj
    [
      ("count", string_of_int d.count);
      ("sum", Obs.json_float d.sum);
      ("mean", Obs.json_float d.mean);
      ("p50", Obs.json_float d.p50);
      ("p95", Obs.json_float d.p95);
      ("p99", Obs.json_float d.p99);
      ("saturated", string_of_bool d.saturated);
    ]

let append ?(dir = Sys.getcwd ()) ~bench ~smoke ~cores ~domains ~workload ~metrics ?obs () =
  let root = Option.value (find_root dir) ~default:dir in
  let path = Filename.concat root (Printf.sprintf "BENCH_%s.json" bench) in
  let latency =
    match obs with
    | None -> []
    | Some obs -> [ ("latency", json_obj (List.map (fun (n, d) -> (n, json_digest d)) (latencies obs))) ]
  in
  (* Every workload stanza records the domain count in the same place, so
     the perf trajectory can always be sliced by parallelism; the wall
     clock is read through Util.Wallclock, the repo's single funnel for
     the determinism lint. *)
  let workload = ("domains", string_of_int domains) :: workload in
  let record =
    json_obj
      ([
         ("bench", quoted bench);
         ("commit", quoted (commit ~dir ()));
         ("unix_time", string_of_int (int_of_float (Util.Wallclock.now_s ())));
         ("smoke", string_of_bool smoke);
         ("cores", string_of_int cores);
         ("workload", json_obj (List.map (fun (k, v) -> (k, quoted v)) workload));
         ("metrics", json_obj (List.map (fun (k, v) -> (k, Obs.json_float v)) metrics));
       ]
      @ latency)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc record;
      output_char oc '\n');
  path
