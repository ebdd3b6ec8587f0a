(* Bench_record resolves the current commit by reading the repository
   directly — no subprocess — so every .git layout git produces must be
   handled: plain directories, packed refs, detached HEADs, and worktrees
   where [.git] is a "gitdir:" indirection file and refs live behind a
   [commondir] pointer. Each layout is built by hand in a temp dir.

   Bench_gate is the driver the gate benches share: its flag parsing,
   repeat statistic, check judging and record labelling are pinned
   below. *)

let hash1 = "1111111111111111111111111111111111111111"
let hash2 = "2222222222222222222222222222222222222222"
let hash3 = "3333333333333333333333333333333333333333"

let rec mkdirs path =
  if not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let write path contents =
  mkdirs (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_tmp f =
  let dir = Filename.temp_file "benchrec_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ( / ) = Filename.concat

let test_plain_checkout () =
  with_tmp (fun tmp ->
      let root = tmp / "main" in
      write (root / ".git" / "HEAD") "ref: refs/heads/main\n";
      write (root / ".git" / "refs" / "heads" / "main") (hash1 ^ "\n");
      Alcotest.(check string) "loose ref" hash1 (Bench_record.commit ~dir:root ());
      (* discovery walks up from a subdirectory *)
      mkdirs (root / "lib" / "store");
      Alcotest.(check string) "from subdir" hash1
        (Bench_record.commit ~dir:(root / "lib" / "store") ()))

let test_packed_refs () =
  with_tmp (fun tmp ->
      let root = tmp / "main" in
      write (root / ".git" / "HEAD") "ref: refs/heads/pk\n";
      write (root / ".git" / "packed-refs")
        ("# pack-refs with: peeled fully-peeled sorted\n" ^ hash2 ^ " refs/heads/pk\n");
      Alcotest.(check string) "packed ref" hash2 (Bench_record.commit ~dir:root ()))

let test_detached_head () =
  with_tmp (fun tmp ->
      let root = tmp / "main" in
      write (root / ".git" / "HEAD") (hash3 ^ "\n");
      Alcotest.(check string) "detached" hash3 (Bench_record.commit ~dir:root ()))

let test_worktree_gitdir () =
  with_tmp (fun tmp ->
      let main = tmp / "main" and wt = tmp / "wt" in
      write (main / ".git" / "HEAD") "ref: refs/heads/main\n";
      write (main / ".git" / "refs" / "heads" / "main") (hash1 ^ "\n");
      write (main / ".git" / "refs" / "heads" / "feature") (hash2 ^ "\n");
      write (main / ".git" / "worktrees" / "wt" / "HEAD") "ref: refs/heads/feature\n";
      write (main / ".git" / "worktrees" / "wt" / "commondir") "../..\n";
      mkdirs wt;
      write (wt / ".git") ("gitdir: " ^ (".." / "main" / ".git" / "worktrees" / "wt") ^ "\n");
      Alcotest.(check string) "worktree HEAD via commondir" hash2
        (Bench_record.commit ~dir:wt ());
      Alcotest.(check string) "primary checkout unaffected" hash1
        (Bench_record.commit ~dir:main ()))

let test_worktree_packed_ref () =
  with_tmp (fun tmp ->
      let main = tmp / "main" and wt = tmp / "wt" in
      write (main / ".git" / "HEAD") "ref: refs/heads/main\n";
      write (main / ".git" / "packed-refs") (hash3 ^ " refs/heads/feature\n");
      write (main / ".git" / "worktrees" / "wt" / "HEAD") "ref: refs/heads/feature\n";
      write (main / ".git" / "worktrees" / "wt" / "commondir") "../..\n";
      mkdirs wt;
      write (wt / ".git") ("gitdir: " ^ (".." / "main" / ".git" / "worktrees" / "wt") ^ "\n");
      Alcotest.(check string) "worktree ref from primary packed-refs" hash3
        (Bench_record.commit ~dir:wt ()))

let test_no_repository () =
  with_tmp (fun tmp ->
      (* no .git anywhere under tmp; discovery may still escape upward and
         find an enclosing checkout, so only assert it never raises *)
      let (_ : string) = Bench_record.commit ~dir:tmp () in
      ())

(* {2 Bench_gate} *)

let gate ?(smoke = false) cores = { Bench_gate.smoke; cores }

let test_parse_smoke () =
  let smoke_of argv =
    match Bench_gate.parse (Array.of_list ("bench" :: argv)) with
    | Ok t -> Some t.Bench_gate.smoke
    | Error _ -> None
  in
  Alcotest.(check (option bool)) "no flag" (Some false) (smoke_of []);
  Alcotest.(check (option bool)) "--smoke" (Some true) (smoke_of [ "--smoke" ]);
  Alcotest.(check (option bool)) "unknown flag" None (smoke_of [ "--quick" ]);
  Alcotest.(check (option bool)) "stray argument" None (smoke_of [ "smoke" ])

let test_median () =
  let median xs = snd (Bench_gate.median ~by:fst xs) in
  Alcotest.(check string) "single" "a" (median [ (1.0, "a") ]);
  Alcotest.(check string) "odd: middle" "b" (median [ (3.0, "c"); (1.0, "a"); (2.0, "b") ]);
  Alcotest.(check string) "even: upper middle" "c"
    (median [ (4.0, "d"); (1.0, "a"); (3.0, "c"); (2.0, "b") ])

(* Runs [f ppf] against a buffer and returns what it printed, line by line. *)
let printed f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let r = f ppf in
  Format.pp_print_flush ppf ();
  (r, String.split_on_char '\n' (String.trim (Buffer.contents buf)))

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_failing_check_runs_the_rest () =
  let later_ran = ref false in
  let status, lines =
    printed (fun ppf ->
        Bench_gate.judge ~ppf (gate 4)
          [
            Bench_gate.check "first" (fun () -> (false, "broken"));
            Bench_gate.check "second" (fun () ->
                later_ran := true;
                (true, "fine"));
          ])
  in
  Alcotest.(check int) "status" 1 status;
  Alcotest.(check bool) "later check ran" true !later_ran;
  Alcotest.(check (list string)) "one verdict line each"
    [ "FAIL    first: broken"; "ok      second: fine" ]
    lines

let test_guarded_checks_skip () =
  let judged = ref 0 in
  let failing name guard =
    guard name (fun () ->
        incr judged;
        (false, "judged"))
  in
  let status, lines =
    printed (fun ppf ->
        Bench_gate.judge ~ppf (gate ~smoke:true 1)
          [
            failing "needs cores" (Bench_gate.check ~cores:2);
            failing "full size" (Bench_gate.check ~full_size:true);
          ])
  in
  Alcotest.(check int) "skips do not fail" 0 status;
  Alcotest.(check int) "skipped checks are not judged" 0 !judged;
  Alcotest.(check (list bool)) "each prints skipped" [ true; true ]
    (List.map (starts_with "skipped ") lines);
  (* enough cores and a full-size run: the same check is judged and fails *)
  let status, _ =
    printed (fun ppf -> Bench_gate.judge ~ppf (gate 2) [ failing "x" (Bench_gate.check ~cores:2) ])
  in
  Alcotest.(check int) "judged when the host qualifies" 1 status

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s affix =
  let n = String.length affix in
  let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_record_labels () =
  with_tmp (fun tmp ->
      (* an empty .git keeps discovery from walking out of the temp dir *)
      mkdirs (tmp / ".git");
      let status, lines =
        printed (fun ppf ->
            Bench_gate.finish ~dir:tmp ~ppf (gate ~smoke:true 3) ~bench:"unit" ~domains:2
              ~workload:[ ("ops", "8") ]
              ~metrics:[ ("speedup", 2.5); ("ratio", infinity) ]
              [ Bench_gate.check "holds" (fun () -> (true, "yes")) ])
      in
      Alcotest.(check int) "status" 0 status;
      let path =
        match List.find_opt (starts_with "recorded -> ") lines with
        | Some l -> String.sub l 12 (String.length l - 12)
        | None -> Alcotest.fail "no recorded line"
      in
      let record = read_file path in
      List.iter
        (fun field -> Alcotest.(check bool) field true (contains record field))
        [
          {|"bench":"unit"|};
          {|"smoke":true|};
          {|"cores":3|};
          {|"domains":"2"|};
          {|"speedup":2.5|};
          {|"ratio":"+inf"|};
        ])

let () =
  Alcotest.run "benchrec"
    [
      ( "commit",
        [
          Alcotest.test_case "plain checkout" `Quick test_plain_checkout;
          Alcotest.test_case "packed refs" `Quick test_packed_refs;
          Alcotest.test_case "detached HEAD" `Quick test_detached_head;
          Alcotest.test_case "worktree gitdir file" `Quick test_worktree_gitdir;
          Alcotest.test_case "worktree packed ref" `Quick test_worktree_packed_ref;
          Alcotest.test_case "no repository" `Quick test_no_repository;
        ] );
      ( "gate",
        [
          Alcotest.test_case "--smoke parsing" `Quick test_parse_smoke;
          Alcotest.test_case "median of odd and even counts" `Quick test_median;
          Alcotest.test_case "failing check runs the rest" `Quick
            test_failing_check_runs_the_rest;
          Alcotest.test_case "guarded checks skip" `Quick test_guarded_checks_skip;
          Alcotest.test_case "record carries smoke and cores" `Quick test_record_labels;
        ] );
    ]
