(* Teeth tests for lib/lint: every analyzer rule must catch a seeded
   violation, the clean tree must pass, and the static lock graph must be
   a superset of what the live hot-path model observes. Synthetic sources
   go through [scan_file]/[analyze] directly, so each rule is exercised
   in isolation without touching the real tree. *)

let findings_of ?dynamic_edges files =
  let scans = List.map (fun (path, source) -> Linter.scan_file ~path ~source) files in
  (Linter.analyze ?dynamic_edges scans).Linter.findings

let has rule fs = List.exists (fun f -> f.Linter.rule = rule) fs

let pp_all fs =
  String.concat "; " (List.map (fun f -> Format.asprintf "%a" Linter.pp_finding f) fs)

(* --- primitive confinement --- *)

let test_primitive_caught () =
  let fs =
    findings_of [ ("lib/store/evil.ml", "let c = Atomic.make 0\nlet () = Atomic.incr c\n") ]
  in
  Alcotest.(check bool) "raw Atomic outside allowlist flagged" true (has "primitive" fs)

let test_primitive_allowlisted () =
  let fs = findings_of [ ("lib/conc/fine.ml", "let c = Atomic.make 0\n") ] in
  Alcotest.(check bool) "Atomic allowed in lib/conc" false (has "primitive" fs)

let test_mutex_type_caught () =
  let fs = findings_of [ ("lib/store/evil.ml", "type t = { m : Mutex.t }\n") ] in
  Alcotest.(check bool) "Mutex.t in a record type flagged" true (has "primitive" fs)

(* --- static lock-order graph --- *)

(* shard-before-stack is the documented order; [bad] reverses it. *)
let reversed_src =
  "type t = { shards : Conc.Rwlock.t array; stack : Conc.Rwlock.t }\n\
   let good t = Conc.Rwlock.with_write t.shards.(0) (fun () -> \n\
  \  Conc.Rwlock.with_write t.stack (fun () -> ()))\n\
   let bad t = Conc.Rwlock.with_write t.stack (fun () -> \n\
  \  Conc.Rwlock.with_write t.shards.(0) (fun () -> ()))\n"

let test_reversed_acquisition_cycle () =
  let fs = findings_of [ ("lib/store/evil.ml", reversed_src) ] in
  let cycles =
    List.filter
      (fun f ->
        f.Linter.rule = "lockgraph"
        &&
        let m = f.Linter.message in
        let has_sub s =
          let n = String.length s in
          let rec go i = i + n <= String.length m && (String.sub m i n = s || go (i + 1)) in
          go 0
        in
        has_sub "cycle")
      fs
  in
  Alcotest.(check bool) (Printf.sprintf "cycle reported (%s)" (pp_all fs)) true (cycles <> [])

let good_src =
  "type t = { shards : Conc.Rwlock.t array; stack : Conc.Rwlock.t }\n\
   let good t = Conc.Rwlock.with_write t.shards.(0) (fun () -> \n\
  \  Conc.Rwlock.with_write t.stack (fun () -> ()))\n"

let test_ordered_discipline_clean () =
  let fs = findings_of [ ("lib/store/fine.ml", good_src) ] in
  Alcotest.(check string) (pp_all fs) "" (pp_all fs)

let test_same_class_nesting_caught () =
  let src =
    "type t = { stack : Conc.Rwlock.t }\n\
     let bad a b = Conc.Rwlock.with_write a.stack (fun () -> \n\
    \  Conc.Rwlock.with_write b.stack (fun () -> ()))\n"
  in
  let fs = findings_of [ ("lib/store/evil.ml", src) ] in
  Alcotest.(check bool)
    (Printf.sprintf "stack->stack nesting flagged (%s)" (pp_all fs))
    true
    (List.exists (fun f -> f.Linter.rule = "lockgraph" && f.Linter.symbol = "stack->stack") fs)

let test_shard_self_edge_allowed () =
  (* shard has a documented internal order (ascending index), so nested
     shard acquisitions are legal. *)
  let src =
    "type t = { shards : Conc.Rwlock.t array }\n\
     let fine t = Conc.Rwlock.with_write t.shards.(0) (fun () -> \n\
    \  Conc.Rwlock.with_write t.shards.(1) (fun () -> ()))\n"
  in
  let fs = findings_of [ ("lib/store/fine.ml", src) ] in
  Alcotest.(check string) (pp_all fs) "" (pp_all fs)

let test_cycle_through_call_graph () =
  (* The reversed edge only appears once calls are resolved: [outer]
     holds stack and calls [inner], which takes a shard lock. *)
  let src =
    "type t = { shards : Conc.Rwlock.t array; stack : Conc.Rwlock.t }\n\
     let good t = Conc.Rwlock.with_write t.shards.(0) (fun () -> \n\
    \  Conc.Rwlock.with_write t.stack (fun () -> ()))\n\
     let inner t = Conc.Rwlock.with_write t.shards.(0) (fun () -> ())\n\
     let outer t = Conc.Rwlock.with_write t.stack (fun () -> inner t)\n"
  in
  let fs = findings_of [ ("lib/store/evil.ml", src) ] in
  Alcotest.(check bool)
    (Printf.sprintf "transitive cycle reported (%s)" (pp_all fs))
    true
    (List.exists (fun f -> f.Linter.rule = "lockgraph") fs)

let test_unclassified_lock_caught () =
  let src = "let f weird = Conc.Rwlock.with_write weird (fun () -> ())\n" in
  let fs = findings_of [ ("lib/store/evil.ml", src) ] in
  Alcotest.(check bool) "unclassifiable lock name flagged" true (has "lockgraph" fs)

(* --- determinism lints --- *)

let test_self_init_caught () =
  let fs = findings_of [ ("lib/store/evil.ml", "let () = Random.self_init ()\n") ] in
  Alcotest.(check bool) "Random.self_init flagged" true (has "random" fs)

let test_wallclock_caught () =
  let fs = findings_of [ ("lib/store/evil.ml", "let t = Unix.gettimeofday ()\n") ] in
  Alcotest.(check bool) "wall-clock read in lib/ flagged" true (has "wallclock" fs)

let test_wallclock_allowed_in_bench () =
  let fs = findings_of [ ("bench/timer.ml", "let t = Unix.gettimeofday ()\n") ] in
  Alcotest.(check bool) "wall-clock read in bench/ allowed" false (has "wallclock" fs)

let test_hashtbl_iter_caught () =
  let fs =
    findings_of [ ("lib/store/evil.ml", "let f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  Alcotest.(check bool) "order-fragile Hashtbl.iter flagged" true (has "hashtbl" fs)

(* A [Hashtbl.Make] instance iterates its buckets as unordered as
   [Hashtbl] itself does. *)
let test_hashtbl_functor_iter_caught () =
  let src =
    "module Itbl = Hashtbl.Make (struct type t = int let equal = Int.equal let hash = Fun.id end)\n\
     let f h = Itbl.iter (fun _ _ -> ()) h\n\
     let g h = Itbl.fold (fun _ _ n -> n + 1) h 0\n\
     let ok h = Itbl.find_opt h 3\n"
  in
  let fs =
    List.filter (fun f -> f.Linter.rule = "hashtbl") (findings_of [ ("lib/cache/evil.ml", src) ])
  in
  Alcotest.(check (list string)) "Itbl.iter and Itbl.fold flagged" [ "Itbl.fold"; "Itbl.iter" ]
    (List.sort compare (List.map (fun f -> f.Linter.symbol) fs));
  Alcotest.(check bool) "allowed in lib/smc" false
    (has "hashtbl" (findings_of [ ("lib/smc/fine.ml", src) ]))

let test_hashtbl_iter_allowed_in_smc () =
  let fs =
    findings_of [ ("lib/smc/fine.ml", "let f h = Hashtbl.iter (fun _ _ -> ()) h\n") ]
  in
  Alcotest.(check bool) "Hashtbl.iter allowed in lib/smc" false (has "hashtbl" fs)

(* --- lazy suspensions --- *)

(* lib/util/crc32.ml as it was while its table was lazy: two domains
   forcing the table at once raised CamlinternalLazy.Undefined. *)
let lazy_crc32_src =
  String.concat "\n"
    [
      "let table =";
      "  lazy";
      "    (let t = Array.make 256 0 in";
      "     for n = 0 to 255 do";
      "       let c = ref n in";
      "       for _ = 0 to 7 do";
      "         if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1";
      "       done;";
      "       t.(n) <- !c";
      "     done;";
      "     t)";
      "";
      "let update crc b off len =";
      "  let t = Lazy.force table in";
      "  let crc = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in";
      "  for i = off to off + len - 1 do";
      "    crc := t.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!crc lsr 8)";
      "  done;";
      "  Int32.of_int (!crc lxor 0xFFFFFFFF)";
      "";
    ]

let test_lazy_crc32_caught () =
  let fs = findings_of [ ("lib/util/crc32.ml", lazy_crc32_src) ] in
  let lazy_symbols =
    List.filter_map (fun f -> if f.Linter.rule = "lazy" then Some f.Linter.symbol else None) fs
  in
  Alcotest.(check (list string))
    (Printf.sprintf "the suspension and its force are flagged (%s)" (pp_all fs))
    [ "lazy"; "Lazy.force" ] lazy_symbols

let test_lazy_allowed_outside_lib () =
  let fs = findings_of [ ("bin/tool.ml", lazy_crc32_src) ] in
  Alcotest.(check bool) "lazy allowed in bin/" false (has "lazy" fs)

(* --- Obs blind-spot audit --- *)

let test_unregistered_metric_caught () =
  let fs =
    findings_of [ ("lib/store/evil.ml", "let v obs = Obs.counter_value obs \"nope_total\"\n") ]
  in
  Alcotest.(check bool) "unregistered metric reference flagged" true (has "metric" fs)

let test_registered_metric_clean () =
  let fs =
    findings_of
      [
        ("lib/store/a.ml", "let c obs = Obs.counter obs \"ok_total\"\n");
        ("lib/store/b.ml", "let v obs = Obs.counter_value obs \"ok_total\"\n");
      ]
  in
  Alcotest.(check bool) "cross-file registration satisfies the audit" false (has "metric" fs)

(* --- dynamic cross-check --- *)

let one_good = [ ("lib/store/fine.ml", String.concat "\n" [
  "type t = { shards : Conc.Rwlock.t array; stack : Conc.Rwlock.t }";
  "let good t = Conc.Rwlock.with_write t.shards.(0) (fun () ->";
  "  Conc.Rwlock.with_write t.stack (fun () -> ()))"; "" ]) ]

let test_dynamic_edge_missing_statically () =
  let fs = findings_of ~dynamic_edges:[ ("stack", "shard") ] one_good in
  Alcotest.(check bool)
    (Printf.sprintf "dynamic-only edge is a finding (%s)" (pp_all fs))
    true (has "lockgraph" fs)

let test_dynamic_subset_clean () =
  let fs = findings_of ~dynamic_edges:[ ("shard", "stack") ] one_good in
  Alcotest.(check string) (pp_all fs) "" (pp_all fs)

(* --- waivers --- *)

let test_waiver_parse () =
  match Linter.parse_waivers "# comment\n\nprimitive lib/a.ml Atomic.make -- because\n" with
  | Ok [ w ] ->
    Alcotest.(check string) "rule" "primitive" w.Linter.w_rule;
    Alcotest.(check string) "file" "lib/a.ml" w.Linter.w_file;
    Alcotest.(check string) "symbol" "Atomic.make" w.Linter.w_symbol;
    Alcotest.(check string) "reason" "because" w.Linter.w_reason
  | Ok ws -> Alcotest.failf "expected one waiver, got %d" (List.length ws)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_waiver_malformed () =
  match Linter.parse_waivers "primitive lib/a.ml Atomic.make no separator\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a waiver without ' -- ' must not parse"

let test_waiver_apply_and_stale () =
  let fs =
    findings_of [ ("lib/store/evil.ml", "let c = Atomic.make 0\nlet d = Atomic.make 1\n") ]
  in
  let waive rule file symbol =
    { Linter.w_rule = rule; w_file = file; w_symbol = symbol; w_reason = "test" }
  in
  let matching = waive "primitive" "lib/store/evil.ml" "Atomic.make" in
  let stale = waive "primitive" "lib/other.ml" "Atomic.make" in
  let kept, unused = Linter.apply_waivers ~waivers:[ matching; stale ] fs in
  Alcotest.(check string) "one waiver covers both same-symbol findings" "" (pp_all kept);
  Alcotest.(check int) "unmatched waiver reported stale" 1 (List.length unused)

let test_dynamic_graph_parse () =
  let edges = Linter.parse_dynamic_graph "# header\nshard stack\nshard shard\n" in
  Alcotest.(check (list (pair string string)))
    "edges" [ ("shard", "stack"); ("shard", "shard") ] edges

(* --- the real tree --- *)

let repo_root () =
  let rec go dir =
    if Sys.file_exists (Filename.concat dir ".git") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  go (Sys.getcwd ())

let test_clean_tree () =
  match repo_root () with
  | None -> () (* no checkout visible from the build dir; covered in CI *)
  | Some root ->
    let findings, report, stale_waivers = Linter.run ~root () in
    Alcotest.(check string) "clean tree has no findings" "" (pp_all findings);
    Alcotest.(check int) "no stale waivers" 0 (List.length stale_waivers);
    Alcotest.(check bool) "the scan saw the tree" true (report.Linter.files_scanned > 50)

(* Static >= dynamic, live: every lock-class edge the Smc hot-path model
   observes must already be in the static graph — otherwise the extractor
   is blind to a code path the harness can reach. Same computation as
   [validate --shared --lint-graph], without the subprocess. *)
let test_static_superset_of_dynamic () =
  match repo_root () with
  | None -> ()
  | Some root ->
    let _, report, _ = Linter.run ~root () in
    let dynamic =
      List.concat_map
        (fun r ->
          let o = r.Conc.Conc_shared.outcome in
          List.filter_map
            (fun (a, b) ->
              match
                (List.assoc_opt a o.Smc.lock_names, List.assoc_opt b o.Smc.lock_names)
              with
              | Some na, Some nb -> Some (na, nb)
              | _ -> None)
            o.Smc.lock_edges)
        (Conc.Conc_shared.run ~budget:3000 ())
      |> List.sort_uniq compare
    in
    Alcotest.(check bool) "the model observed lock edges" true (dynamic <> []);
    List.iter
      (fun (a, b) ->
        Alcotest.(check bool)
          (Printf.sprintf "dynamic edge %s->%s appears statically" a b)
          true
          (List.mem (a, b) report.Linter.static_edges))
      dynamic

let () =
  Alcotest.run "lint"
    [
      ( "primitive",
        [
          Alcotest.test_case "raw Atomic caught" `Quick test_primitive_caught;
          Alcotest.test_case "allowlist honoured" `Quick test_primitive_allowlisted;
          Alcotest.test_case "Mutex.t type caught" `Quick test_mutex_type_caught;
        ] );
      ( "lockgraph",
        [
          Alcotest.test_case "reversed acquisition -> cycle" `Quick test_reversed_acquisition_cycle;
          Alcotest.test_case "documented order clean" `Quick test_ordered_discipline_clean;
          Alcotest.test_case "same-class nesting caught" `Quick test_same_class_nesting_caught;
          Alcotest.test_case "shard self-edge allowed" `Quick test_shard_self_edge_allowed;
          Alcotest.test_case "cycle through call graph" `Quick test_cycle_through_call_graph;
          Alcotest.test_case "unclassified lock caught" `Quick test_unclassified_lock_caught;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Random.self_init caught" `Quick test_self_init_caught;
          Alcotest.test_case "wall clock caught" `Quick test_wallclock_caught;
          Alcotest.test_case "wall clock ok in bench/" `Quick test_wallclock_allowed_in_bench;
          Alcotest.test_case "Hashtbl.iter caught" `Quick test_hashtbl_iter_caught;
          Alcotest.test_case "Hashtbl.iter ok in lib/smc" `Quick test_hashtbl_iter_allowed_in_smc;
          Alcotest.test_case "Hashtbl.Make iter caught" `Quick test_hashtbl_functor_iter_caught;
          Alcotest.test_case "lazy crc32 table caught" `Quick test_lazy_crc32_caught;
          Alcotest.test_case "lazy ok outside lib/" `Quick test_lazy_allowed_outside_lib;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "unregistered ref caught" `Quick test_unregistered_metric_caught;
          Alcotest.test_case "cross-file registration ok" `Quick test_registered_metric_clean;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "dynamic-only edge caught" `Quick test_dynamic_edge_missing_statically;
          Alcotest.test_case "dynamic subset clean" `Quick test_dynamic_subset_clean;
          Alcotest.test_case "graph file parse" `Quick test_dynamic_graph_parse;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "parse" `Quick test_waiver_parse;
          Alcotest.test_case "malformed rejected" `Quick test_waiver_malformed;
          Alcotest.test_case "apply + stale" `Quick test_waiver_apply_and_stale;
        ] );
      ( "tree",
        [
          Alcotest.test_case "clean tree passes" `Slow test_clean_tree;
          Alcotest.test_case "static superset of dynamic" `Slow test_static_superset_of_dynamic;
        ] );
    ]
