(* Tests for lib/tracecheck: the wire-trace recorder (monotone timestamps,
   byte budget, JSONL export) and the offline linearizability audit
   (valid concurrent histories accepted, each seeded violation class
   rejected with a minimized subhistory, truncation and search-budget
   verdicts), plus end-to-end capture through Store.Shared, Rpc.Node,
   Fleet and a chaos campaign. *)

module T = Tracecheck.Trace
module A = Tracecheck.Audit

let e ts ev = { T.ts; src = "test"; ev }
let inv ts id op = e ts (T.Invoke { id; client = 0; op })
let resp ts id outcome = e ts (T.Respond { id; outcome })

let verdict = Alcotest.testable (Fmt.of_to_string A.verdict_name) ( = )

(* {2 Recorder} *)

let test_recorder_orders_and_counts () =
  let r = T.Recorder.create () in
  let id1 = T.Recorder.invoke r ~src:"a" (T.Put { key = "k"; value = "v" }) in
  let id2 = T.Recorder.invoke r ~src:"b" (T.Get { key = "k" }) in
  T.Recorder.respond r ~src:"a" ~id:id1 T.Acked;
  T.Recorder.mark r ~src:"a" ~node:2 T.Crash;
  T.Recorder.respond r ~src:"b" ~id:id2 (T.Got (Some "v"));
  let entries = T.Recorder.entries r in
  Alcotest.(check int) "events" 5 (T.Recorder.events_recorded r);
  Alcotest.(check int) "entries" 5 (List.length entries);
  Alcotest.(check bool) "distinct ids" true (id1 <> id2);
  Alcotest.(check int) "nothing dropped" 0 (T.Recorder.dropped r);
  let ts = List.map (fun en -> en.T.ts) entries in
  Alcotest.(check (list int)) "strictly ascending timestamps" (List.sort_uniq compare ts) ts;
  let jsonl = T.Recorder.to_jsonl r in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one JSONL line per event" 5 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_recorder_byte_budget_drops_pairs () =
  let obs = Obs.create ~scope:"tracecheck-test" ~trace_capacity:0 () in
  let r = T.Recorder.create ~obs ~byte_budget:600 () in
  let ids =
    List.init 16 (fun i ->
        let id = T.Recorder.invoke r ~src:"a" (T.Put { key = Printf.sprintf "key-%02d" i; value = String.make 32 'x' }) in
        T.Recorder.respond r ~src:"a" ~id T.Acked;
        id)
  in
  Alcotest.(check bool) "some events dropped" true (T.Recorder.dropped r > 0);
  Alcotest.(check bool) "budget respected" true
    (T.Recorder.bytes_used r <= T.Recorder.byte_budget r);
  Alcotest.(check int) "obs counter tracks drops" (T.Recorder.dropped r)
    (Obs.counter_value obs "obs.trace_dropped");
  (* A dropped invoke must drop its respond too: the surviving log still
     passes the wire-level checks (every respond has its invoke). *)
  let report = A.run (T.Recorder.entries r) in
  Alcotest.(check int) "log well-formed despite drops" 0 (List.length report.A.rejections);
  (* The audit of the recorder itself reports the truncation. *)
  let report = A.audit r in
  Alcotest.check verdict "truncated verdict" A.Truncated report.A.verdict;
  Alcotest.(check bool) "not ok" false (A.ok report);
  ignore ids

(* {2 Audit: valid histories} *)

let test_audit_accepts_sequential_history () =
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Get { key = "a" });
        resp 4 2 (T.Got (Some "x"));
        inv 5 3 (T.Delete { key = "a" });
        resp 6 3 T.Acked;
        inv 7 4 (T.Get { key = "a" });
        resp 8 4 (T.Got None);
      ]
  in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "ok" true (A.ok report);
  Alcotest.(check int) "ops" 4 report.A.ops

let test_audit_accepts_concurrent_overlap () =
  (* put y's interval nests inside put x's: linearizing y before x
     explains a later read of x even though y was invoked second. *)
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        inv 2 2 (T.Put { key = "a"; value = "y" });
        resp 3 2 T.Acked;
        resp 4 1 T.Acked;
        inv 5 3 (T.Get { key = "a" });
        resp 6 3 (T.Got (Some "x"));
      ]
  in
  Alcotest.check verdict "valid" A.Valid report.A.verdict

let test_audit_failed_mutation_indeterminate () =
  (* A failed put may or may not have landed: both read outcomes are
     admissible, and so is reading the old value afterwards. *)
  let history tail =
    [
      inv 1 1 (T.Put { key = "a"; value = "old" });
      resp 2 1 T.Acked;
      inv 3 2 (T.Put { key = "a"; value = "new" });
      resp 4 2 T.Failed;
    ]
    @ tail
  in
  List.iter
    (fun v ->
      let report = A.run (history [ inv 5 3 (T.Get { key = "a" }); resp 6 3 (T.Got (Some v)) ]) in
      Alcotest.check verdict (v ^ " admissible") A.Valid report.A.verdict)
    [ "old"; "new" ];
  (* A pending mutation (no response at all) is indeterminate too. *)
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        inv 2 2 (T.Get { key = "a" });
        resp 3 2 (T.Got (Some "x"));
      ]
  in
  Alcotest.check verdict "pending put readable" A.Valid report.A.verdict;
  Alcotest.(check int) "one pending op" 1 report.A.pending

(* {2 Audit: seeded violations (the teeth)} *)

let test_audit_rejects_lost_acked_write () =
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Get { key = "a" });
        resp 4 2 (T.Got None);
      ]
  in
  Alcotest.check verdict "rejected" A.Rejected report.A.verdict;
  match report.A.rejections with
  | [ r ] ->
    Alcotest.(check string) "names the key" "a" r.A.r_key;
    (* Minimization keeps the violation: the subhistory still carries
       both the acked put and the contradicting read. *)
    Alcotest.(check bool) "minimized subhistory non-empty" true (r.A.r_entries <> [])
  | rs -> Alcotest.failf "expected one rejection, got %d" (List.length rs)

let test_audit_rejects_stale_read () =
  let report =
    A.run
      [
        inv 1 1 (T.Put { key = "a"; value = "x" });
        resp 2 1 T.Acked;
        inv 3 2 (T.Put { key = "a"; value = "y" });
        resp 4 2 T.Acked;
        inv 5 3 (T.Get { key = "a" });
        resp 6 3 (T.Got (Some "x"));
      ]
  in
  Alcotest.check verdict "rejected" A.Rejected report.A.verdict

let test_audit_rejects_snapshot_violation () =
  (* Per-key each answer is fine; no single point in the scan's interval
     can both miss "a" (certain from ts 3) and see "b" (possible from
     ts 4). *)
  let report =
    A.run
      [
        inv 1 4 (T.Scan { lo = None; hi = None });
        inv 2 1 (T.Put { key = "a"; value = "1" });
        resp 3 1 T.Acked;
        inv 4 2 (T.Put { key = "b"; value = "2" });
        resp 5 2 T.Acked;
        resp 6 4 (T.Scanned { items = [ ("b", "2") ]; complete = true });
      ]
  in
  Alcotest.check verdict "rejected" A.Rejected report.A.verdict

let test_audit_rejects_wire_malformations () =
  let cases =
    [
      ( "respond before invoke",
        [ inv 5 1 (T.Put { key = "a"; value = "x" }); resp 3 1 T.Acked ] );
      ( "unknown id",
        [ inv 1 1 (T.Put { key = "a"; value = "x" }); resp 2 7 T.Acked ] );
      ( "duplicate invoke id",
        [
          inv 1 1 (T.Put { key = "a"; value = "x" });
          e 2 (T.Invoke { id = 1; client = 0; op = T.Get { key = "a" } });
        ] );
      ( "outcome kind mismatch",
        [ inv 1 1 (T.Get { key = "a" }); resp 2 1 T.Acked ] );
      ( "batch arity mismatch",
        [
          inv 1 1 (T.Batch [ ("a", Some "x"); ("b", None) ]);
          resp 2 1 (T.Batch_done [ true ]);
        ] );
    ]
  in
  List.iter
    (fun (name, entries) ->
      let report = A.run entries in
      Alcotest.check verdict name A.Rejected report.A.verdict)
    cases

let test_audit_gives_up_on_tiny_budget () =
  (* Many mutually concurrent ops; a one-node budget cannot finish the
     search, and the verdict must admit that rather than claim Valid. *)
  let n = 12 in
  let invokes = List.init n (fun i -> inv (i + 1) (i + 1) (T.Put { key = "a"; value = string_of_int i })) in
  let resps = List.init n (fun i -> resp (n + i + 1) (i + 1) T.Acked) in
  let report = A.run ~budget_per_key:1 (invokes @ resps) in
  Alcotest.check verdict "gave up" A.Gave_up report.A.verdict;
  Alcotest.(check bool) "not ok" false (A.ok report)

(* {2 End-to-end capture} *)

let test_shared_store_capture_audits_valid () =
  let r = T.Recorder.create () in
  let s = Store.Shared.create ~shards:4 ~trace:r Store.Default.test_config in
  let ok_or_fail what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %a" what Store.Default.pp_error e
  in
  ok_or_fail "put" (Store.Shared.put s ~key:"a" ~value:"1");
  ok_or_fail "batch"
    (Store.Shared.put_batch s [ ("b", "2"); ("c", "3") ] : (Store.Shared.batch_result, _) result)
  |> fun (_ : Store.Shared.batch_result) -> ();
  Alcotest.(check (option string)) "get" (Some "1") (ok_or_fail "get" (Store.Shared.get s ~key:"a"));
  ignore (ok_or_fail "flush" (Store.Shared.flush s) : int);
  ok_or_fail "delete" (Store.Shared.delete s ~key:"a");
  let items = ok_or_fail "scan" (Store.Shared.scan s ()) in
  Alcotest.(check (list (pair string string))) "scan sees b c" [ ("b", "2"); ("c", "3") ] items;
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "flush marker recorded" true (report.A.markers > 0);
  Alcotest.(check bool) "scan judged" true (report.A.scans > 0)

let test_rpc_node_capture_audits_valid () =
  let r = T.Recorder.create () in
  let node = Rpc.Node.create ~trace:r Store.Default.test_config in
  let handle req = Rpc.Node.handle node req in
  for i = 0 to 9 do
    match handle (Rpc.Message.Put { key = Printf.sprintf "k%d" i; value = string_of_int i }) with
    | Rpc.Message.Ack -> ()
    | other -> Alcotest.failf "put: %a" Rpc.Message.pp_response other
  done;
  (* Drive a paginated scan through its continuation tokens: each page is
     its own recorded interval; only the last may claim completeness. *)
  let rec drain after n =
    match handle (Rpc.Message.Scan_request { lo = None; hi = None; after; max_results = 4 }) with
    | Rpc.Message.Scan_response { items; more } ->
      let n = n + List.length items in
      if more then
        match List.rev items with
        | (last, _) :: _ -> drain (Some last) n
        | [] -> n
      else n
    | other -> Alcotest.failf "scan: %a" Rpc.Message.pp_response other
  in
  Alcotest.(check int) "paginated scan sees all keys" 10 (drain None 0);
  (* Control-plane requests are not client-visible history. *)
  ignore (handle Rpc.Message.List : Rpc.Message.response);
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "pages judged as scans" true (report.A.scans >= 3)

let test_fleet_capture_markers_and_validity () =
  let r = T.Recorder.create () in
  let fleet = Fleet.create ~trace:r (Experiments.Chaos.fleet_config ~seed:7) in
  (match Fleet.put fleet ~key:"s00" ~value:"v" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "put: %a" Fleet.pp_error e);
  Fleet.crash_node fleet ~rng:(Util.Rng.create 5L) ~node:0;
  (match Fleet.get fleet ~key:"s00" with
  | Ok (Some "v") -> ()
  | Ok v -> Alcotest.failf "get: %a" Fmt.(Dump.option string) v
  | Error e -> Alcotest.failf "get: %a" Fleet.pp_error e);
  let kinds =
    List.filter_map
      (fun en -> match en.T.ev with T.Mark { kind; _ } -> Some kind | _ -> None)
      (T.Recorder.entries r)
  in
  Alcotest.(check bool) "crash marker" true (List.mem T.Crash kinds);
  Alcotest.(check bool) "restart marker" true (List.mem T.Restart kinds);
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict

let test_chaos_campaign_capture_audits_valid () =
  Faults.disable_all ();
  let ops = Experiments.Chaos.gen ~length:30 ~seed:3 in
  let r = T.Recorder.create ~byte_budget:(8 * 1024 * 1024) () in
  let violations, _, _ = Experiments.Chaos.run_ops ~trace:r ~seed:3 ops in
  Alcotest.(check int) "campaign clean" 0 (List.length violations);
  let report = A.audit r in
  Alcotest.check verdict "valid" A.Valid report.A.verdict;
  Alcotest.(check bool) "trace non-trivial" true (report.A.entries > 20)

(* {2 Differential: the audit against a reference copy}

   [Ref] is a copy of the audit as written before its cross-key check
   indexed each key's history once per audit: [collect] re-sorts the key
   universe and searches each complete scan's items once per in-range
   key, and [cross_check] re-derives every judged key's mutations and
   bracket once per scan. Reports must be equal, field for field. *)

module Ref = struct
  module Trace = T

  type verdict = A.verdict = Valid | Rejected | Truncated | Gave_up

  type rejection = A.rejection = {
    r_key : string;
    r_reason : string;
    r_entries : Trace.entry list;
  }

  type report = A.report = {
    entries : int;
    ops : int;
    completed : int;
    pending : int;
    markers : int;
    keys : int;
    max_key_events : int;
    scans : int;
    dropped : int;
    search_nodes : int;
    verdict : verdict;
    rejections : rejection list;
  }

  (* {2 Wire-level well-formedness} *)

  type orec = {
    o_id : int;
    o_op : Trace.op;
    o_invoked : int;
    mutable o_returned : int;  (* max_int while pending *)
    mutable o_outcome : Trace.outcome option;
    o_inv_entry : Trace.entry;
    mutable o_resp_entry : Trace.entry option;
  }

  let compatible (op : Trace.op) (outcome : Trace.outcome) =
    match (op, outcome) with
    | (Trace.Put _ | Trace.Delete _), (Trace.Acked | Trace.Failed) -> Ok ()
    | Trace.Get _, (Trace.Got _ | Trace.Unavailable) -> Ok ()
    | Trace.Batch ops, Trace.Batch_done flags ->
      if List.length flags = List.length ops then Ok ()
      else
        Error
          (Printf.sprintf "batch response arity %d does not match request arity %d"
             (List.length flags) (List.length ops))
    | Trace.Batch _, Trace.Failed -> Ok ()
    | Trace.Scan _, (Trace.Scanned _ | Trace.Unavailable) -> Ok ()
    | _, _ -> Error "response kind does not match the invoked operation"

  (* One ordered pass: strictly increasing timestamps, every response after
     its (unique) invocation, at most one response per id, response kinds
     matching the operation. The response-before-invocation forgery lands
     here whichever way it is serialized: in emission order it breaks ts
     monotonicity, in ts order the response precedes its invocation. *)
  let wire_check entries =
    let rejections = ref [] in
    let reject reason ents =
      rejections := { r_key = ""; r_reason = reason; r_entries = ents } :: !rejections
    in
    let by_id : (int, orec) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    let markers = ref 0 in
    let last_ts = ref min_int in
    List.iter
      (fun (e : Trace.entry) ->
        if e.Trace.ts <= !last_ts then
          reject
            (Printf.sprintf "timestamps not strictly increasing (ts %d after ts %d)" e.Trace.ts
               !last_ts)
            [ e ];
        last_ts := e.Trace.ts;
        match e.Trace.ev with
        | Trace.Invoke { id; op; _ } ->
          if Hashtbl.mem by_id id then reject (Printf.sprintf "duplicate invocation id %d" id) [ e ]
          else begin
            let r =
              {
                o_id = id;
                o_op = op;
                o_invoked = e.Trace.ts;
                o_returned = max_int;
                o_outcome = None;
                o_inv_entry = e;
                o_resp_entry = None;
              }
            in
            Hashtbl.replace by_id id r;
            order := r :: !order
          end
        | Trace.Respond { id; outcome } -> (
          match Hashtbl.find_opt by_id id with
          | None -> reject (Printf.sprintf "response for id %d with no invocation" id) [ e ]
          | Some r ->
            if r.o_outcome <> None then reject (Printf.sprintf "second response for id %d" id) [ e ]
            else if e.Trace.ts <= r.o_invoked then
              reject
                (Printf.sprintf "response at ts %d not after its invocation at ts %d (id %d)"
                   e.Trace.ts r.o_invoked id)
                [ r.o_inv_entry; e ]
            else begin
              (match compatible r.o_op outcome with
              | Ok () -> ()
              | Error msg -> reject (Printf.sprintf "id %d: %s" r.o_id msg) [ r.o_inv_entry; e ]);
              r.o_returned <- e.Trace.ts;
              r.o_outcome <- Some outcome;
              r.o_resp_entry <- Some e
            end)
        | Trace.Mark _ -> incr markers)
      entries;
    (List.rev !rejections, List.rev !order, !markers)

  (* {2 Per-key interval histories} *)

  (* The sequential model is the chaos campaign's per-key entry: an acked
     mutation commits and clears the indeterminate set, a failed (or
     pending) one joins it, an observation must be admissible and leaves
     the state alone. [maybe] is kept sorted so states memoize well. *)
  type state = { committed : string option; maybe : string option list }

  let init_state = { committed = None; maybe = [] }

  type act =
    | Mutate of { value : string option; acked : bool }
    | Observe of string option

  (* One per-key event: the engine's interval (returned = max_int for
     pending mutations) plus the trace entries it came from. *)
  type kev = { ev : act Lincheck.event; origin : Trace.entry list }

  let apply st = function
    | Mutate { value; acked = true } -> Some { committed = value; maybe = [] }
    | Mutate { value; acked = false } ->
      if List.mem value st.maybe then Some st
      else Some { st with maybe = List.sort compare (value :: st.maybe) }
    | Observe v ->
      let admissible =
        (match v with None -> st.committed = None | Some _ -> v = st.committed)
        || List.mem v st.maybe
      in
      if admissible then Some st else None

  (* A completed scan, for the cross-key snapshot test: the interval and
     what it claimed about every judged key. *)
  type scan_rec = {
    s_invoked : int;
    s_returned : int;
    s_judged : (string * string option) list;
    s_origin : Trace.entry list;
  }

  let origin_of r = r.o_inv_entry :: Option.to_list r.o_resp_entry

  (* Judge a scan's payload before the model does: a snapshot that is not
     strictly ascending, de-duplicated and inside its own bounds is broken
     wire-level, whatever values it carries. *)
  let scan_structure r ~lo ~hi items =
    let rec go = function
      | [] | [ _ ] -> None
      | (a, _) :: (((b, _) :: _) as rest) ->
        if String.compare a b >= 0 then
          Some
            {
              r_key = a;
              r_reason =
                Printf.sprintf "scan items not strictly ascending (%S then %S)" a b;
              r_entries = origin_of r;
            }
        else go rest
    in
    match List.find_opt (fun (k, _) -> not (Util.Key_range.mem ~lo ~hi k)) items with
    | Some (k, _) ->
      Some
        {
          r_key = k;
          r_reason = Printf.sprintf "scan yielded %S outside its bounds" k;
          r_entries = origin_of r;
        }
    | None -> go items

  (* Fold the operation records into per-key histories plus scan records.
     Batches collapse to one mutation per distinct key (the last op on a
     key wins, as in every batched apply path); a complete scan judges
     every trace-known key in range, a partial page only the keys it
     yielded. *)
  let collect ops =
    let per_key : (string, kev list) Hashtbl.t = Hashtbl.create 64 in
    let add k kev =
      Hashtbl.replace per_key k
        (kev :: Option.value (Hashtbl.find_opt per_key k) ~default:[])
    in
    let universe : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let touch k = Hashtbl.replace universe k () in
    List.iter
      (fun r ->
        match r.o_op with
        | Trace.Put { key; _ } | Trace.Delete { key } | Trace.Get { key } -> touch key
        | Trace.Batch ops -> List.iter (fun (k, _) -> touch k) ops
        | Trace.Scan _ -> (
          match r.o_outcome with
          | Some (Trace.Scanned { items; _ }) -> List.iter (fun (k, _) -> touch k) items
          | _ -> ()))
      ops;
    let scans = ref [] in
    let struct_rejections = ref [] in
    List.iter
      (fun r ->
        let interval_act act =
          {
            ev = { Lincheck.invoked = r.o_invoked; returned = r.o_returned; act };
            origin = origin_of r;
          }
        in
        match (r.o_op, r.o_outcome) with
        | Trace.Put { key; value }, outcome ->
          add key (interval_act (Mutate { value = Some value; acked = outcome = Some Trace.Acked }))
        | Trace.Delete { key }, outcome ->
          add key (interval_act (Mutate { value = None; acked = outcome = Some Trace.Acked }))
        | Trace.Get { key }, Some (Trace.Got v) -> add key (interval_act (Observe v))
        | Trace.Get _, _ -> ()
        | Trace.Batch bops, outcome ->
          let flags =
            match outcome with
            | Some (Trace.Batch_done flags) when List.length flags = List.length bops -> flags
            | _ -> List.map (fun _ -> false) bops
          in
          let last : (string, string option * bool) Hashtbl.t = Hashtbl.create 8 in
          List.iter2 (fun (k, v) acked -> Hashtbl.replace last k (v, acked)) bops flags;
          Util.Tbl.iter_sorted
            (fun k (value, acked) -> add k (interval_act (Mutate { value; acked })))
            last
        | Trace.Scan { lo; hi }, Some (Trace.Scanned { items; complete }) ->
          (match scan_structure r ~lo ~hi items with
          | Some rej -> struct_rejections := rej :: !struct_rejections
          | None -> ());
          let judged =
            if complete then
              List.filter_map
                (fun k -> if Util.Key_range.mem ~lo ~hi k then Some (k, List.assoc_opt k items) else None)
                (Util.Tbl.sorted_keys ~compare:String.compare universe)
            else List.map (fun (k, v) -> (k, Some v)) items
          in
          List.iter (fun (k, v) -> add k (interval_act (Observe v))) judged;
          scans :=
            {
              s_invoked = r.o_invoked;
              s_returned = r.o_returned;
              s_judged = judged;
              s_origin = origin_of r;
            }
            :: !scans
        | Trace.Scan _, _ -> ())
      ops;
    (per_key, List.rev !scans, List.rev !struct_rejections)

  (* {2 The per-key search}

     One {!Lincheck} search per key, against the model above. *)

  let search ~budget kevs =
    Lincheck.search ~budget ~init:init_state ~step:apply (List.map (fun k -> k.ev) kevs)

  (* {2 Minimization}

     Span-removal ddmin over the per-key history, keeping only subsets the
     search still rejects outright (a gave-up candidate is treated as
     passing, so minimization can only shrink, never mislabel). *)
  let minimize ~budget kevs =
    let still_fails kevs =
      kevs <> [] && match search ~budget kevs with Lincheck.Rejected, _ -> true | _ -> false
    in
    Util.Ddmin.minimize ~still_fails kevs

  let entries_of_kevs kevs =
    List.concat_map (fun k -> k.origin) kevs
    |> List.sort_uniq (fun (a : Trace.entry) b -> compare a.Trace.ts b.Trace.ts)

  (* {2 The cross-key snapshot test}

     For each judged key, bracket when its observed value could have been
     the key's current answer: not before every writer of that value was
     invoked ([lo]), and not after an acked overwrite certainly completed
     with no chance of the value being restored ([hi] — an acked mutation
     to a different value, where every writer of the observed value had
     already returned by the overwrite's invocation). The scan needs one
     point inside its own interval meeting every key's bracket; an empty
     intersection is a snapshot violation no per-key history can explain.
     Both bounds are conservative, so a rejection here is sound. *)
  let cross_check per_key s =
    let muts_of k =
      List.filter_map
        (fun { ev; _ } ->
          match ev.Lincheck.act with
          | Mutate { value; acked } -> Some (value, acked, ev.Lincheck.invoked, ev.Lincheck.returned)
          | Observe _ -> None)
        (List.rev (Option.value (Hashtbl.find_opt per_key k) ~default:[]))
    in
    let bracket (k, v) =
      let muts = muts_of k in
      let writer_invokes =
        List.filter_map (fun (value, _, inv, _) -> if value = v then Some inv else None) muts
      in
      let lo =
        match (v, writer_invokes) with
        | None, _ -> min_int
        | Some _, [] -> min_int (* no writer at all: the per-key search rejects it *)
        | Some _, l -> List.fold_left min max_int l
      in
      (* some mutation of [v] could still linearize after a point at or
         past [inv] *)
      let value_may_follow inv =
        List.exists (fun (value, _, _, ret) -> value = v && ret > inv) muts
      in
      let hi =
        List.fold_left
          (fun hi (value, acked, inv, ret) ->
            if acked && value <> v && ret < hi && not (value_may_follow inv) then ret else hi)
          max_int muts
      in
      (k, lo, hi)
    in
    let brackets = List.map bracket s.s_judged in
    let lo_k, lo =
      List.fold_left (fun (bk, b) (k, l, _) -> if l > b then (k, l) else (bk, b)) ("", min_int)
        brackets
    in
    let hi_k, hi =
      List.fold_left (fun (bk, b) (k, _, h) -> if h < b then (k, h) else (bk, b)) ("", max_int)
        brackets
    in
    let low = max s.s_invoked lo and high = min s.s_returned hi in
    if low <= high then None
    else
      let constraining k =
        List.concat_map (fun e -> e.origin)
          (Option.value (Hashtbl.find_opt per_key k) ~default:[])
      in
      Some
        {
          r_key = (if lo_k <> "" then lo_k else hi_k);
          r_reason =
            Printf.sprintf
              "scan snapshot violation: %S requires a linearization point >= %d but %S allows \
               none past %d (scan interval [%d, %d])"
              lo_k lo hi_k hi s.s_invoked s.s_returned;
          r_entries =
            (s.s_origin @ constraining lo_k @ constraining hi_k)
            |> List.sort_uniq (fun (a : Trace.entry) b -> compare a.Trace.ts b.Trace.ts);
        }

  (* {2 The audit} *)

  let run ?(budget_per_key = Lincheck.default_budget) ?(dropped = 0) entries =
    let wf_rejections, ops, markers = wire_check entries in
    let completed = List.length (List.filter (fun r -> r.o_outcome <> None) ops) in
    let base =
      {
        entries = List.length entries;
        ops = List.length ops;
        completed;
        pending = List.length ops - completed;
        markers;
        keys = 0;
        max_key_events = 0;
        scans = 0;
        dropped;
        search_nodes = 0;
        verdict = Valid;
        rejections = [];
      }
    in
    if wf_rejections <> [] then
      { base with verdict = (if dropped > 0 then Truncated else Rejected); rejections = wf_rejections }
    else begin
      let per_key, scans, struct_rejections = collect ops in
      let nodes_total = ref 0 in
      let gave_up = ref false in
      let longest = ref 0 in
      let rejections = ref (List.rev struct_rejections) in
      Util.Tbl.iter_sorted
        (fun key kevs ->
          let kevs = List.rev kevs in
          longest := max !longest (List.length kevs);
          let outcome, nodes = search ~budget:budget_per_key kevs in
          nodes_total := !nodes_total + nodes;
          match outcome with
          | Lincheck.Linearizable -> ()
          | Lincheck.Gave_up -> gave_up := true
          | Lincheck.Rejected ->
            let minimized = minimize ~budget:budget_per_key kevs in
            rejections :=
              {
                r_key = key;
                r_reason =
                  Printf.sprintf
                    "per-key history not linearizable against the committed/indeterminate model \
                     (%d event(s), minimized to %d)"
                    (List.length kevs) (List.length minimized);
                r_entries = entries_of_kevs minimized;
              }
              :: !rejections)
        per_key;
      List.iter
        (fun s ->
          match cross_check per_key s with
          | Some rej -> rejections := rej :: !rejections
          | None -> ())
        scans;
      let rejections = List.rev !rejections in
      let verdict =
        if dropped > 0 then Truncated
        else if rejections <> [] then Rejected
        else if !gave_up then Gave_up
        else Valid
      in
      {
        base with
        keys = Hashtbl.length per_key;
        max_key_events = !longest;
        scans = List.length scans;
        search_nodes = !nodes_total;
        verdict;
        rejections;
      }
    end
end

(* Random concurrent runs against a map, recorded as traces. Clients
   invoke operations that take effect one at a time, at a step between
   invocation and response, so intervals overlap. A mutation may fail
   (taking effect or not) or stay pending forever. Batches write distinct
   keys and may fail as a whole. Scans take bounds from the key set and
   may return one page only. The perturbations that make a history
   invalid: a get answers a random value; a torn scan answers each key
   from the map as it was at the scan's invocation or at its effect,
   which breaks the snapshot; a scan repeats an item, with its value or
   another. *)
let gen_history seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let chance p = Random.State.float st 1.0 < p in
  let keys = [| "a"; "b"; "c"; "d"; "e" |] in
  let values = Array.init 8 string_of_int in
  let key () = keys.(int (Array.length keys)) in
  let value () = values.(int (Array.length values)) in
  let map : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let snapshot ~lo ~hi =
    List.filter_map
      (fun k ->
        if Util.Key_range.mem ~lo ~hi k then Option.map (fun v -> (k, v)) (Hashtbl.find_opt map k)
        else None)
      (Array.to_list keys)
  in
  let write k = function Some v -> Hashtbl.replace map k v | None -> Hashtbl.remove map k in
  let entries = ref [] and ts = ref 0 in
  let emit ev =
    incr ts;
    entries := e !ts ev :: !entries
  in
  (* An invoked operation: [effect] runs once, at its effect step, and
     returns the response it will send; [None] never responds. A scan
     lingers, so that other operations complete inside its interval. *)
  let flight = ref [] and next_id = ref 0 in
  let mutation apply_it =
    let pending = chance 0.1 in
    let acked = (not pending) && chance 0.7 in
    fun () ->
      if acked || chance 0.5 then apply_it ();
      if pending then None else Some (if acked then T.Acked else T.Failed)
  in
  let invoke () =
    incr next_id;
    let id = !next_id in
    let op, effect =
      match int 7 with
      | 0 | 1 ->
        let k = key () and v = value () in
        (T.Put { key = k; value = v }, mutation (fun () -> write k (Some v)))
      | 2 ->
        let k = key () in
        (T.Delete { key = k }, mutation (fun () -> write k None))
      | 3 ->
        let k = key () in
        ( T.Get { key = k },
          fun () ->
            Some
              (if chance 0.05 then T.Unavailable
               else if chance 0.05 then T.Got (Some (value ()))
               else T.Got (Hashtbl.find_opt map k)) )
      | 4 ->
        let ks = List.filter (fun _ -> chance 0.4) (Array.to_list keys) in
        let ks = if ks = [] then [ key () ] else ks in
        let bops = List.map (fun k -> (k, if chance 0.25 then None else Some (value ()))) ks in
        ( T.Batch bops,
          fun () ->
            if chance 0.15 then begin
              List.iter (fun (k, v) -> if chance 0.5 then write k v) bops;
              Some T.Failed
            end
            else
              Some
                (T.Batch_done
                   (List.map
                      (fun (k, v) ->
                        let acked = chance 0.8 in
                        if acked || chance 0.5 then write k v;
                        acked)
                      bops)) )
      | _ ->
        let bound () = if chance 0.5 then None else Some (key ()) in
        let lo = bound () and hi = bound () in
        let at_invoke = snapshot ~lo ~hi in
        ( T.Scan { lo; hi },
          fun () ->
            let now = snapshot ~lo ~hi in
            let items =
              if chance 0.5 then
                List.filter_map
                  (fun k ->
                    List.assoc_opt k (if chance 0.5 then at_invoke else now)
                    |> Option.map (fun v -> (k, v)))
                  (Array.to_list keys)
              else now
            in
            let items =
              if items <> [] && chance 0.1 then
                let i = int (List.length items) in
                List.concat
                  (List.mapi
                     (fun j (k, v) ->
                       if j = i then [ (k, v); (k, if chance 0.5 then v else value ()) ]
                       else [ (k, v) ])
                     items)
              else items
            in
            if chance 0.05 then Some T.Unavailable
            else if chance 0.3 then
              let page = int (List.length items + 1) in
              Some (T.Scanned { items = List.filteri (fun j _ -> j < page) items; complete = false })
            else Some (T.Scanned { items; complete = true }) )
    in
    emit (T.Invoke { id; client = id; op });
    flight := (id, (match op with T.Scan _ -> 0.1 | _ -> 1.0), ref (`Waiting effect)) :: !flight
  in
  let ops = 4 + int 24 in
  let rec step left =
    let live = List.filter (fun (_, _, s) -> !s <> `Done) !flight in
    if left > 0 && (live = [] || (List.length live < 5 && chance 0.4)) then begin
      invoke ();
      step (left - 1)
    end
    else if live <> [] then begin
      let id, pace, s = List.nth live (int (List.length live)) in
      if chance pace then
        (match !s with
        | `Waiting effect -> s := (match effect () with Some r -> `Responding r | None -> `Done)
        | `Responding outcome ->
          emit (T.Respond { id; outcome });
          s := `Done
        | `Done -> ());
      step left
    end
  in
  step ops;
  List.rev !entries

let pp_history = Fmt.(list ~sep:cut T.pp_entry)

let audit_matches_reference seed =
  let entries = gen_history seed in
  let got = A.run entries and want = Ref.run entries in
  if got <> want then
    QCheck.Test.fail_reportf "seed %d:@.@[<v>%a@]@.audit: %a@.reference: %a" seed pp_history entries
      A.pp_report got A.pp_report want;
  got

let audit_matches_reference_prop =
  QCheck.Test.make ~name:"audit reports match the reference on random histories" ~count:2000
    QCheck.(int_bound 1_000_000_000)
    (fun seed -> ignore (audit_matches_reference seed : A.report); true)

let is_snapshot_violation r =
  String.starts_with ~prefix:"scan snapshot violation" r.A.r_reason

(* The generator is worth its keep only if it reaches both sides of the
   verdict, and the cross-key check in particular. *)
let test_differential_reaches_both_verdicts () =
  let valid = ref 0 and snapshot = ref 0 and n = 2000 in
  for seed = 0 to n - 1 do
    let report = audit_matches_reference seed in
    if report.A.verdict = A.Valid then incr valid;
    if List.exists is_snapshot_violation report.A.rejections then incr snapshot
  done;
  Alcotest.(check bool) (Printf.sprintf "valid in %d of %d" !valid n) true (!valid * 5 >= n);
  Alcotest.(check bool)
    (Printf.sprintf "snapshot violations in %d of %d" !snapshot n)
    true (!snapshot * 20 >= n)

let () =
  Alcotest.run "tracecheck"
    [
      ( "recorder",
        [
          Alcotest.test_case "orders and counts" `Quick test_recorder_orders_and_counts;
          Alcotest.test_case "byte budget drops pairs" `Quick
            test_recorder_byte_budget_drops_pairs;
        ] );
      ( "audit accepts",
        [
          Alcotest.test_case "sequential history" `Quick test_audit_accepts_sequential_history;
          Alcotest.test_case "concurrent overlap" `Quick test_audit_accepts_concurrent_overlap;
          Alcotest.test_case "failed mutation indeterminate" `Quick
            test_audit_failed_mutation_indeterminate;
        ] );
      ( "audit rejects",
        [
          Alcotest.test_case "lost acked write" `Quick test_audit_rejects_lost_acked_write;
          Alcotest.test_case "stale read" `Quick test_audit_rejects_stale_read;
          Alcotest.test_case "snapshot violation" `Quick test_audit_rejects_snapshot_violation;
          Alcotest.test_case "wire malformations" `Quick test_audit_rejects_wire_malformations;
          Alcotest.test_case "tiny budget gives up" `Quick test_audit_gives_up_on_tiny_budget;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "shared store capture" `Quick
            test_shared_store_capture_audits_valid;
          Alcotest.test_case "rpc node capture" `Quick test_rpc_node_capture_audits_valid;
          Alcotest.test_case "fleet capture markers" `Quick
            test_fleet_capture_markers_and_validity;
          Alcotest.test_case "chaos campaign capture" `Quick
            test_chaos_campaign_capture_audits_valid;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest audit_matches_reference_prop;
          Alcotest.test_case "reaches valid and snapshot verdicts" `Quick
            test_differential_reaches_both_verdicts;
        ] );
    ]
