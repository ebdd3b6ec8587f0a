type t = { smoke : bool; cores : int }

let parse argv =
  let smoke = ref false in
  let spec = [ ("--smoke", Arg.Set smoke, " small budgets (the CI smoke run)") ] in
  let usage = Printf.sprintf "usage: %s [--smoke]" (Filename.basename argv.(0)) in
  match
    Arg.parse_argv ~current:(ref 0) argv spec
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage
  with
  | () -> Ok { smoke = !smoke; cores = Par.default_domains () }
  | exception (Arg.Bad msg | Arg.Help msg) -> Error msg

let init () =
  match parse Sys.argv with
  | Ok t -> t
  | Error msg ->
    prerr_string msg;
    exit 2

let median ~by runs =
  let sorted = List.sort (fun a b -> Float.compare (by a) (by b)) runs in
  List.nth sorted (List.length sorted / 2)

let capture ~byte_budget f =
  let recorder = Tracecheck.Trace.Recorder.create ~byte_budget () in
  let result = f recorder in
  (result, Tracecheck.Audit.audit recorder)

type check = { name : string; cores : int; full_size : bool; judge : unit -> bool * string }

let check ?(cores = 1) ?(full_size = false) name judge = { name; cores; full_size; judge }

let audit_check name report =
  check name (fun () ->
      (Tracecheck.Audit.ok report, Format.asprintf "%a" Tracecheck.Audit.pp_report report))

let judge ?(ppf = Format.std_formatter) t checks =
  List.fold_left
    (fun status c ->
      let verdict, detail, status =
        if c.full_size && t.smoke then ("skipped", "full-size runs only", status)
        else if t.cores < c.cores then
          ("skipped", Printf.sprintf "needs %d cores, host has %d" c.cores t.cores, status)
        else
          match c.judge () with
          | true, detail -> ("ok", detail, status)
          | false, detail -> ("FAIL", detail, 1)
      in
      Format.fprintf ppf "%-7s %s: %s@." verdict c.name detail;
      status)
    0 checks

let finish ?dir ?(ppf = Format.std_formatter) t ~bench ~domains ~workload ~metrics ?obs checks =
  let path =
    Bench_record.append ?dir ~bench ~smoke:t.smoke ~cores:t.cores ~domains ~workload ~metrics
      ?obs ()
  in
  Format.fprintf ppf "recorded -> %s@.@." path;
  judge ~ppf t checks
