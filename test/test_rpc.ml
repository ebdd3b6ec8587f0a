(* Tests for the RPC layer: wire-protocol roundtrips, decoder totality on
   arbitrary bytes (paper section 7), and multi-disk request routing. *)

module S = Store.Default

let requests =
  [
    Rpc.Message.Put { key = "k"; value = "v" };
    Rpc.Message.Put { key = ""; value = "" };
    Rpc.Message.Get { key = "some key" };
    Rpc.Message.Delete { key = "k" };
    Rpc.Message.List;
    Rpc.Message.Remove_disk { disk = 3 };
    Rpc.Message.Return_disk { disk = 0 };
    Rpc.Message.Bulk_delete { keys = [ "a"; "b"; "c" ] };
    Rpc.Message.Bulk_delete { keys = [] };
    Rpc.Message.Migrate { key = "shard"; to_disk = 2 };
    Rpc.Message.Node_stats;
    Rpc.Message.Scan_request { lo = None; hi = None; after = None; max_results = 10 };
    Rpc.Message.Scan_request
      { lo = Some "a"; hi = Some "z"; after = Some "m"; max_results = 1 };
    Rpc.Message.Scan_request { lo = Some ""; hi = None; after = None; max_results = 0 };
    Rpc.Message.Batch_request { ops = [] };
    Rpc.Message.Batch_request
      {
        ops =
          [
            Rpc.Message.Batch_put { key = "a"; value = "1" };
            Rpc.Message.Batch_delete { key = "b" };
            Rpc.Message.Batch_put { key = ""; value = "" };
          ];
      };
  ]

let responses =
  [
    Rpc.Message.Ack;
    Rpc.Message.Value None;
    Rpc.Message.Value (Some "payload");
    Rpc.Message.Keys [ "a"; "b" ];
    Rpc.Message.Keys [];
    Rpc.Message.Stats { disks = 4; in_service = 3; keys = 17; metrics = [] };
    Rpc.Message.Stats
      {
        disks = 1;
        in_service = 1;
        keys = 0;
        metrics =
          [
            { Rpc.Message.metric_name = "cache.hit"; labels = [ ("disk", "0") ]; value = 42.0 };
            {
              Rpc.Message.metric_name = "store.value_bytes.sum";
              labels = [ ("disk", "0"); ("kind", "put") ];
              value = 4097.25;
            };
            { Rpc.Message.metric_name = "iosched.pending"; labels = []; value = 0.1 };
          ];
      };
    Rpc.Message.Error_response "boom";
    Rpc.Message.Batch_response { statuses = [] };
    Rpc.Message.Batch_response
      {
        statuses =
          [ Rpc.Message.Op_ok; Rpc.Message.Op_error "no"; Rpc.Message.Op_ok ];
      };
    Rpc.Message.Batch_response
      {
        statuses =
          [ Rpc.Message.Op_quorum { acked = 2 }; Rpc.Message.Op_ok;
            Rpc.Message.Op_quorum { acked = 3 } ];
      };
    Rpc.Message.Scan_response { items = []; more = false };
    Rpc.Message.Scan_response
      { items = [ ("a", "1"); ("b", ""); ("", "empty key") ]; more = true };
    Rpc.Message.Quorum_ack { acked = 2; lagging = [ 4 ] };
    Rpc.Message.Quorum_ack { acked = 3; lagging = [] };
    Rpc.Message.Quorum_ack { acked = 1; lagging = [ 0; 2; 5 ] };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Rpc.Message.decode_request (Rpc.Message.encode_request req) with
      | Ok req' ->
        Alcotest.(check bool)
          (Format.asprintf "%a" Rpc.Message.pp_request req)
          true
          (Rpc.Message.request_equal req req')
      | Error e -> Alcotest.failf "decode failed: %a" Util.Codec.pp_error e)
    requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Rpc.Message.decode_response (Rpc.Message.encode_response resp) with
      | Ok resp' ->
        Alcotest.(check bool)
          (Format.asprintf "%a" Rpc.Message.pp_response resp)
          true
          (Rpc.Message.response_equal resp resp')
      | Error e -> Alcotest.failf "decode failed: %a" Util.Codec.pp_error e)
    responses

let test_trailing_bytes_rejected () =
  let bytes = Rpc.Message.encode_request Rpc.Message.List ^ "x" in
  match Rpc.Message.decode_request bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes must be rejected"

(* Paper section 7: deserializers running on untrusted bytes must be
   total — for any sequence of on-disk/on-wire bytes, no panic. *)
let prop_decode_total =
  QCheck.Test.make ~name:"wire decoders total on arbitrary bytes" ~count:5000
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      let _ = Rpc.Message.decode_request s in
      let _ = Rpc.Message.decode_response s in
      true)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"random put roundtrips" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 30)) (string_of_size Gen.(0 -- 200)))
    (fun (key, value) ->
      match Rpc.Message.(decode_request (encode_request (Put { key; value }))) with
      | Ok (Rpc.Message.Put p) -> String.equal p.key key && String.equal p.value value
      | _ -> false)

(* Satellite: degraded-mode statuses (quorum ack with lagging replicas,
   per-op quorum statuses in a batch) survive the wire byte-exactly. *)
let prop_degraded_roundtrip =
  QCheck.Test.make ~name:"degraded responses roundtrip byte-exact" ~count:500
    QCheck.(
      pair
        (pair (int_bound 16) (list_of_size Gen.(0 -- 12) (int_bound 64)))
        (list_of_size Gen.(0 -- 8) (int_bound 3)))
    (fun ((acked, lagging), quorums) ->
      let statuses =
        List.mapi
          (fun i q ->
            if i mod 2 = 0 then Rpc.Message.Op_quorum { acked = q } else Rpc.Message.Op_ok)
          quorums
      in
      List.for_all
        (fun resp ->
          let bytes = Rpc.Message.encode_response resp in
          match Rpc.Message.decode_response bytes with
          | Ok resp' ->
            Rpc.Message.response_equal resp resp'
            && String.equal bytes (Rpc.Message.encode_response resp')
          | Error e -> QCheck.Test.fail_reportf "decode: %a" Util.Codec.pp_error e)
        [
          Rpc.Message.Quorum_ack { acked; lagging };
          Rpc.Message.Batch_response { statuses };
        ])

(* The lagging-list count prefix is untrusted: a frame claiming more ids
   than [max_lagging_nodes] must be rejected, not looped over. *)
let test_quorum_ack_lagging_bound () =
  let w = Util.Codec.Writer.create () in
  Util.Codec.Writer.raw_string w "SR";
  Util.Codec.Writer.u8 w 6;
  Util.Codec.Writer.uint w 2;
  Util.Codec.Writer.u32 w (Int32.of_int (Rpc.Message.max_lagging_nodes + 1));
  match Rpc.Message.decode_response (Util.Codec.Writer.contents w) with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "oversized lagging count accepted: %a" Rpc.Message.pp_response r

let make_node () = Rpc.Node.create ~disks:3 S.test_config

let test_put_get_across_disks () =
  let node = make_node () in
  let keys = List.init 12 (fun i -> Printf.sprintf "shard-%d" i) in
  List.iter
    (fun key ->
      match Rpc.Node.handle node (Rpc.Message.Put { key; value = key ^ "!" }) with
      | Rpc.Message.Ack -> ()
      | r -> Alcotest.failf "put: %a" Rpc.Message.pp_response r)
    keys;
  (* keys actually spread over multiple disks *)
  let disks = List.sort_uniq compare (List.map (Rpc.Node.disk_of_key node) keys) in
  Alcotest.(check bool) "spread" true (List.length disks > 1);
  List.iter
    (fun key ->
      match Rpc.Node.handle node (Rpc.Message.Get { key }) with
      | Rpc.Message.Value (Some v) -> Alcotest.(check string) key (key ^ "!") v
      | r -> Alcotest.failf "get: %a" Rpc.Message.pp_response r)
    keys

let test_list_unions_disks () =
  let node = make_node () in
  List.iter
    (fun key -> ignore (Rpc.Node.handle node (Rpc.Message.Put { key; value = "v" })))
    [ "a"; "b"; "c"; "d"; "e" ];
  match Rpc.Node.handle node Rpc.Message.List with
  | Rpc.Message.Keys keys ->
    Alcotest.(check (list string)) "all keys" [ "a"; "b"; "c"; "d"; "e" ] keys
  | r -> Alcotest.failf "list: %a" Rpc.Message.pp_response r

let test_remove_return_disk () =
  let node = make_node () in
  let key = "routed" in
  ignore (Rpc.Node.handle node (Rpc.Message.Put { key; value = "v" }));
  let disk = Rpc.Node.disk_of_key node key in
  (match Rpc.Node.handle node (Rpc.Message.Remove_disk { disk }) with
  | Rpc.Message.Ack -> ()
  | r -> Alcotest.failf "remove: %a" Rpc.Message.pp_response r);
  (match Rpc.Node.handle node (Rpc.Message.Get { key }) with
  | Rpc.Message.Error_response _ -> ()
  | r -> Alcotest.failf "get on removed disk should fail: %a" Rpc.Message.pp_response r);
  (match Rpc.Node.handle node Rpc.Message.List with
  | Rpc.Message.Error_response _ -> ()
  | r -> Alcotest.failf "partial listing must be an error: %a" Rpc.Message.pp_response r);
  (match Rpc.Node.handle node (Rpc.Message.Return_disk { disk }) with
  | Rpc.Message.Ack -> ()
  | r -> Alcotest.failf "return: %a" Rpc.Message.pp_response r);
  match Rpc.Node.handle node (Rpc.Message.Get { key }) with
  | Rpc.Message.Value (Some "v") -> ()
  | r -> Alcotest.failf "get after return: %a" Rpc.Message.pp_response r

let test_bulk_delete () =
  let node = make_node () in
  List.iter
    (fun key -> ignore (Rpc.Node.handle node (Rpc.Message.Put { key; value = "v" })))
    [ "a"; "b"; "c" ];
  (match Rpc.Node.handle node (Rpc.Message.Bulk_delete { keys = [ "a"; "c" ] }) with
  | Rpc.Message.Ack -> ()
  | r -> Alcotest.failf "bulk delete: %a" Rpc.Message.pp_response r);
  match Rpc.Node.handle node Rpc.Message.List with
  | Rpc.Message.Keys [ "b" ] -> ()
  | r -> Alcotest.failf "list after bulk delete: %a" Rpc.Message.pp_response r

let test_batch_request_dispatch () =
  let node = make_node () in
  let ops =
    [
      Rpc.Message.Batch_put { key = "a"; value = "1" };
      Rpc.Message.Batch_put { key = "b"; value = "2" };
      Rpc.Message.Batch_delete { key = "a" };
      Rpc.Message.Batch_put { key = "c"; value = "3" };
      Rpc.Message.Batch_put { key = "b"; value = "2bis" };
    ]
  in
  (match Rpc.Node.handle node (Rpc.Message.Batch_request { ops }) with
  | Rpc.Message.Batch_response { statuses } ->
    Alcotest.(check int) "one status per op" 5 (List.length statuses);
    List.iteri
      (fun i -> function
        | Rpc.Message.Op_ok -> ()
        | Rpc.Message.Op_quorum { acked } ->
          Alcotest.failf "op %d quorum-acked (%d) on a healthy node" i acked
        | Rpc.Message.Op_error msg -> Alcotest.failf "op %d failed: %s" i msg)
      statuses
  | r -> Alcotest.failf "batch: %a" Rpc.Message.pp_response r);
  (* Per-disk run batching must preserve program order per key. *)
  (match Rpc.Node.handle node (Rpc.Message.Get { key = "a" }) with
  | Rpc.Message.Value None -> ()
  | r -> Alcotest.failf "a should be put-then-deleted: %a" Rpc.Message.pp_response r);
  (match Rpc.Node.handle node (Rpc.Message.Get { key = "b" }) with
  | Rpc.Message.Value (Some "2bis") -> ()
  | r -> Alcotest.failf "b should hold the later write: %a" Rpc.Message.pp_response r);
  match Rpc.Node.handle node (Rpc.Message.Get { key = "c" }) with
  | Rpc.Message.Value (Some "3") -> ()
  | r -> Alcotest.failf "c: %a" Rpc.Message.pp_response r

(* Satellite invariant: a batch containing one invalid operation reports a
   per-op error for exactly that operation, the rest execute — and the
   request survives encode/decode byte-exactly on the way. *)
let prop_batch_one_bad_op =
  QCheck.Test.make ~name:"batch: one bad op fails alone, wire roundtrip byte-exact"
    ~count:300
    QCheck.(
      triple (int_bound 1000) bool
        (list_of_size Gen.(1 -- 8)
           (pair (string_of_size Gen.(1 -- 12)) (string_of_size Gen.(0 -- 40)))))
    (fun (pos, oversize, pairs) ->
      let n = List.length pairs in
      let bad = pos mod n in
      let ops =
        List.mapi
          (fun i (key, value) ->
            if i = bad then
              if oversize then
                Rpc.Message.Batch_put
                  { key = String.make (Rpc.Message.max_op_key_bytes + 1) 'k'; value }
              else Rpc.Message.Batch_put { key = ""; value }
            else if i mod 3 = 2 then Rpc.Message.Batch_delete { key = "d-" ^ key }
            else Rpc.Message.Batch_put { key; value })
          pairs
      in
      let req = Rpc.Message.Batch_request { ops } in
      let bytes = Rpc.Message.encode_request req in
      (match Rpc.Message.decode_request bytes with
      | Ok req' ->
        if not (Rpc.Message.request_equal req req') then
          QCheck.Test.fail_reportf "decode changed the request";
        let bytes' = Rpc.Message.encode_request req' in
        if not (String.equal bytes bytes') then
          QCheck.Test.fail_reportf "re-encode not byte-exact"
      | Error e -> QCheck.Test.fail_reportf "decode: %a" Util.Codec.pp_error e);
      let node = make_node () in
      match Rpc.Message.decode_response (Rpc.Node.handle_wire node bytes) with
      | Ok (Rpc.Message.Batch_response { statuses }) ->
        if List.length statuses <> n then
          QCheck.Test.fail_reportf "%d statuses for %d ops" (List.length statuses) n;
        List.iteri
          (fun i status ->
            match status, i = bad with
            | Rpc.Message.Op_error _, true | Rpc.Message.Op_ok, false -> ()
            | Rpc.Message.Op_ok, true -> QCheck.Test.fail_reportf "bad op %d accepted" i
            | Rpc.Message.Op_quorum _, _ ->
              QCheck.Test.fail_reportf "op %d quorum-acked on a healthy node" i
            | Rpc.Message.Op_error msg, false ->
              QCheck.Test.fail_reportf "healthy op %d rejected: %s" i msg)
          statuses;
        true
      | Ok r -> QCheck.Test.fail_reportf "unexpected response: %a" Rpc.Message.pp_response r
      | Error e -> QCheck.Test.fail_reportf "response decode: %a" Util.Codec.pp_error e)

(* The scan page size is untrusted: a frame asking for more than
   [max_scan_items] must be rejected at decode, not allocated for. *)
let test_scan_max_results_bound () =
  let w = Util.Codec.Writer.create () in
  Util.Codec.Writer.raw_string w "SR";
  Util.Codec.Writer.u8 w 10;
  Util.Codec.Writer.u8 w 0;
  (* lo absent *)
  Util.Codec.Writer.u8 w 0;
  (* hi absent *)
  Util.Codec.Writer.u8 w 0;
  (* after absent *)
  Util.Codec.Writer.uint w (Rpc.Message.max_scan_items + 1);
  match Rpc.Message.decode_request (Util.Codec.Writer.contents w) with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "oversized max_results accepted: %a" Rpc.Message.pp_request r

(* Satellite: scan pagination is lossless and byte-exact — walking the
   range page by page over the wire (continuation token [after] = last key
   of the previous page) must reassemble exactly the single unpaginated
   scan, and every request and response frame must survive encode/decode
   byte-exactly. *)
let prop_scan_pagination =
  QCheck.Test.make ~name:"scan pagination reassembles unpaginated scan byte-exact"
    ~count:200
    QCheck.(
      triple (int_bound 1_000_000) (int_range 1 5)
        (list_of_size Gen.(0 -- 25) (string_of_size Gen.(1 -- 8))))
    (fun (seed, page, keys) ->
      let node = make_node () in
      let rng = Util.Rng.create (Int64.of_int seed) in
      List.iter
        (fun key ->
          let value = Bytes.to_string (Util.Rng.bytes rng (Util.Rng.int rng 40)) in
          match Rpc.Node.handle node (Rpc.Message.Put { key; value }) with
          | Rpc.Message.Ack -> ()
          | r -> QCheck.Test.fail_reportf "put: %a" Rpc.Message.pp_response r)
        keys;
      let scan ~after ~max_results =
        let req = Rpc.Message.Scan_request { lo = None; hi = None; after; max_results } in
        let bytes = Rpc.Message.encode_request req in
        (match Rpc.Message.decode_request bytes with
        | Ok req' ->
          if not (Rpc.Message.request_equal req req') then
            QCheck.Test.fail_reportf "decode changed the scan request";
          if not (String.equal bytes (Rpc.Message.encode_request req')) then
            QCheck.Test.fail_reportf "scan request re-encode not byte-exact"
        | Error e -> QCheck.Test.fail_reportf "request decode: %a" Util.Codec.pp_error e);
        let resp_bytes = Rpc.Node.handle_wire node bytes in
        match Rpc.Message.decode_response resp_bytes with
        | Ok (Rpc.Message.Scan_response { items; more } as resp) ->
          if not (String.equal resp_bytes (Rpc.Message.encode_response resp)) then
            QCheck.Test.fail_reportf "scan response re-encode not byte-exact";
          (items, more)
        | Ok r -> QCheck.Test.fail_reportf "scan: %a" Rpc.Message.pp_response r
        | Error e -> QCheck.Test.fail_reportf "response decode: %a" Util.Codec.pp_error e
      in
      let full, full_more = scan ~after:None ~max_results:Rpc.Message.max_scan_items in
      if full_more then QCheck.Test.fail_reportf "unpaginated scan claims a next page";
      let rec walk after acc steps =
        if steps > 100 then QCheck.Test.fail_reportf "pagination does not terminate";
        let items, more = scan ~after ~max_results:page in
        if List.length items > page then QCheck.Test.fail_reportf "page overflows max_results";
        let acc = acc @ items in
        if more then
          match List.rev items with
          | [] -> QCheck.Test.fail_reportf "more=true on an empty page"
          | (last, _) :: _ -> walk (Some last) acc (steps + 1)
        else acc
      in
      walk None [] 0 = full)

let test_stats () =
  let node = make_node () in
  ignore (Rpc.Node.handle node (Rpc.Message.Put { key = "k"; value = "v" }));
  match Rpc.Node.handle node Rpc.Message.Node_stats with
  | Rpc.Message.Stats { disks = 3; in_service = 3; keys = 1; metrics } ->
    Alcotest.(check bool) "metrics present" true (metrics <> []);
    (* every sample is tagged with its disk slot *)
    List.iter
      (fun (m : Rpc.Message.metric) ->
        match List.assoc_opt "disk" m.labels with
        | Some ("0" | "1" | "2") -> ()
        | _ -> Alcotest.failf "sample %s missing disk label" m.metric_name)
      metrics;
    (* the put we issued shows up in the serving disk's counters *)
    let disk = string_of_int (Rpc.Node.disk_of_key node "k") in
    let put_count =
      List.filter_map
        (fun (m : Rpc.Message.metric) ->
          if m.metric_name = "store.put" && List.assoc_opt "disk" m.labels = Some disk then
            Some m.value
          else None)
        metrics
    in
    Alcotest.(check (list (float 0.0))) "store.put on serving disk" [ 1.0 ] put_count
  | r -> Alcotest.failf "stats: %a" Rpc.Message.pp_response r

(* [rpc.request] carries one series per request kind, registered by the
   kind's first request: a snapshot lists only the kinds served. *)
let test_request_counters_per_kind () =
  let node = make_node () in
  let series () =
    List.filter_map
      (fun (s : Obs.sample) ->
        if s.Obs.name = "rpc.request" then Some (s.Obs.labels, s.Obs.value) else None)
      (Obs.snapshot (Rpc.Node.obs node))
  in
  Alcotest.(check int) "no series before a request" 0 (List.length (series ()));
  ignore (Rpc.Node.handle node (Rpc.Message.Get { key = "k" }));
  ignore (Rpc.Node.handle node (Rpc.Message.Put { key = "k"; value = "v" }));
  ignore (Rpc.Node.handle node (Rpc.Message.Get { key = "k" }));
  Alcotest.(check bool) "get twice, put once" true
    (series ()
    = [ ([ ("kind", "get") ], Obs.Counter_v 2); ([ ("kind", "put") ], Obs.Counter_v 1) ])

(* Stats metrics survive the full wire round-trip through handle_wire. *)
let test_stats_wire_roundtrip () =
  let node = make_node () in
  ignore (Rpc.Node.handle node (Rpc.Message.Put { key = "k"; value = "v" }));
  let direct = Rpc.Node.handle node Rpc.Message.Node_stats in
  let wire =
    Rpc.Node.handle_wire node (Rpc.Message.encode_request Rpc.Message.Node_stats)
  in
  match direct, Rpc.Message.decode_response wire with
  | Rpc.Message.Stats direct_stats, Ok (Rpc.Message.Stats wire_stats) ->
    (* request counters move between the two calls, so compare the stable
       fields and spot-check that both snapshots carry the same metric
       names rather than demanding equal values *)
    Alcotest.(check int) "disks" direct_stats.disks wire_stats.disks;
    let names ms = List.sort_uniq compare (List.map (fun m -> m.Rpc.Message.metric_name) ms) in
    Alcotest.(check (list string))
      "metric names" (names direct_stats.metrics) (names wire_stats.metrics)
  | r, _ -> Alcotest.failf "stats: %a" Rpc.Message.pp_response r

let test_handle_wire () =
  let node = make_node () in
  let resp_bytes =
    Rpc.Node.handle_wire node
      (Rpc.Message.encode_request (Rpc.Message.Put { key = "k"; value = "v" }))
  in
  (match Rpc.Message.decode_response resp_bytes with
  | Ok Rpc.Message.Ack -> ()
  | _ -> Alcotest.fail "expected ack");
  (* corrupt request -> encoded error, no exception *)
  let resp_bytes = Rpc.Node.handle_wire node "garbage bytes" in
  match Rpc.Message.decode_response resp_bytes with
  | Ok (Rpc.Message.Error_response _) -> ()
  | _ -> Alcotest.fail "expected error response"

let test_bad_disk () =
  let node = make_node () in
  match Rpc.Node.handle node (Rpc.Message.Remove_disk { disk = 99 }) with
  | Rpc.Message.Error_response _ -> ()
  | r -> Alcotest.failf "expected error: %a" Rpc.Message.pp_response r

let test_migrate () =
  let node = make_node () in
  let key = "wanderer" in
  ignore (Rpc.Node.handle node (Rpc.Message.Put { key; value = "v" }));
  let from_disk = Rpc.Node.disk_of_key node key in
  let to_disk = (from_disk + 1) mod Rpc.Node.disk_count node in
  (match Rpc.Node.handle node (Rpc.Message.Migrate { key; to_disk }) with
  | Rpc.Message.Ack -> ()
  | r -> Alcotest.failf "migrate: %a" Rpc.Message.pp_response r);
  Alcotest.(check int) "steering updated" to_disk (Rpc.Node.disk_of_key node key);
  (match Rpc.Node.handle node (Rpc.Message.Get { key }) with
  | Rpc.Message.Value (Some "v") -> ()
  | r -> Alcotest.failf "get after migrate: %a" Rpc.Message.pp_response r);
  (* the source disk no longer holds the shard *)
  (match S.get (Rpc.Node.store node ~disk:from_disk) ~key with
  | Ok None -> ()
  | _ -> Alcotest.fail "source copy should be deleted");
  (* no shard / bad disk *)
  (match Rpc.Node.handle node (Rpc.Message.Migrate { key = "ghost"; to_disk }) with
  | Rpc.Message.Error_response _ -> ()
  | r -> Alcotest.failf "migrate missing: %a" Rpc.Message.pp_response r);
  (match Rpc.Node.handle node (Rpc.Message.Migrate { key; to_disk = 99 }) with
  | Rpc.Message.Error_response _ -> ()
  | r -> Alcotest.failf "migrate bad disk: %a" Rpc.Message.pp_response r);
  (* idempotent when already there *)
  match Rpc.Node.handle node (Rpc.Message.Migrate { key; to_disk }) with
  | Rpc.Message.Ack -> ()
  | r -> Alcotest.failf "migrate same disk: %a" Rpc.Message.pp_response r

(* Node-level conformance: the whole multi-disk node against the hash-map
   model under random request/control traffic. *)
let prop_node_matches_model =
  QCheck.Test.make ~name:"node conformance vs model" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let node = make_node () in
      let model = Model.Kv_model.create () in
      let rng = Util.Rng.create (Int64.of_int seed) in
      let keys = [| "a"; "b"; "c"; "d"; "e" |] in
      for _ = 1 to 60 do
        let key = Util.Rng.pick rng keys in
        match Util.Rng.int rng 7 with
        | 0 | 1 -> (
          let value = Bytes.to_string (Util.Rng.bytes rng (Util.Rng.int rng 120)) in
          match Rpc.Node.handle node (Rpc.Message.Put { key; value }) with
          | Rpc.Message.Ack -> Model.Kv_model.put model ~key ~value
          | Rpc.Message.Error_response _ -> ()
          | r -> QCheck.Test.fail_reportf "put: %a" Rpc.Message.pp_response r)
        | 2 -> (
          match Rpc.Node.handle node (Rpc.Message.Delete { key }) with
          | Rpc.Message.Ack -> Model.Kv_model.delete model ~key
          | r -> QCheck.Test.fail_reportf "delete: %a" Rpc.Message.pp_response r)
        | 3 -> (
          let expected = Model.Kv_model.get model ~key in
          match Rpc.Node.handle node (Rpc.Message.Get { key }) with
          | Rpc.Message.Value actual ->
            if actual <> expected then QCheck.Test.fail_reportf "get divergence on %S" key
          | r -> QCheck.Test.fail_reportf "get: %a" Rpc.Message.pp_response r)
        | 4 -> (
          let to_disk = Util.Rng.int rng 3 in
          match Rpc.Node.handle node (Rpc.Message.Migrate { key; to_disk }) with
          | Rpc.Message.Ack | Rpc.Message.Error_response _ -> ()
          | r -> QCheck.Test.fail_reportf "migrate: %a" Rpc.Message.pp_response r)
        | 5 -> (
          match Rpc.Node.handle node Rpc.Message.List with
          | Rpc.Message.Keys actual ->
            if actual <> Model.Kv_model.list model then
              QCheck.Test.fail_reportf "list divergence"
          | r -> QCheck.Test.fail_reportf "list: %a" Rpc.Message.pp_response r)
        | _ -> ignore (Rpc.Node.tick node : Rpc.Node.tick_report)
      done;
      Array.for_all
        (fun key ->
          match Rpc.Node.handle node (Rpc.Message.Get { key }) with
          | Rpc.Message.Value actual -> actual = Model.Kv_model.get model ~key
          | _ -> false)
        keys)

let test_tick () =
  (* A superblock flush after every put, so the puts' own cadence flushes
     meet the failed extents below too. *)
  let node = Rpc.Node.create ~disks:3 { S.test_config with S.superblock_cadence = 1 } in
  ignore (Rpc.Node.handle node (Rpc.Message.Put { key = "k"; value = "v" }));
  let report = Rpc.Node.tick node in
  Alcotest.(check int) "tick saw every disk" 3 report.Rpc.Node.disks;
  Alcotest.(check int) "no maintenance errors" 0 report.Rpc.Node.errors;
  let disk = Rpc.Node.disk_of_key node "k" in
  Alcotest.(check int) "writeback drained" 0
    (Io_sched.pending_count (S.sched (Rpc.Node.store node ~disk)));
  (* Permanently fail both superblock extents on the serving disk: once
     writeback quarantines them, maintenance flushes error out and the
     report plus the rpc.tick_error counter must both say so. *)
  let store = Rpc.Node.store node ~disk in
  Disk.fail_permanently (S.disk store) ~extent:0;
  Disk.fail_permanently (S.disk store) ~extent:1;
  let errors = ref 0 in
  for i = 1 to 5 do
    if !errors = 0 then begin
      ignore (S.put store ~key:(Printf.sprintf "dirty%d" i) ~value:"v");
      errors := (Rpc.Node.tick node).Rpc.Node.errors
    end
  done;
  Alcotest.(check bool) "maintenance errors surfaced" true (!errors > 0);
  Alcotest.(check bool) "rpc.tick_error bumped" true
    (Obs.counter_value (Rpc.Node.obs node) "rpc.tick_error" >= !errors);
  (* Each failed cadence flush is counted by op and error constructor. *)
  let maint_errors ~op ~kind =
    Obs.counter_value ~labels:[ ("op", op); ("kind", kind) ] (S.obs store) "store.maint_error"
  in
  let superblock = maint_errors ~op:"flush_superblock" ~kind:"Superblock_error" in
  Alcotest.(check bool) "flush_superblock failures counted" true (superblock > 0);
  Alcotest.(check int) "every store.maint_error is that one series" superblock
    (List.fold_left
       (fun acc (sample : Obs.sample) ->
         match sample.Obs.value with
         | Obs.Counter_v n when sample.Obs.name = "store.maint_error" -> acc + n
         | _ -> acc)
       0
       (Obs.snapshot (S.obs store)))

(* A 1,024-extent disk, the benchmark's point-read geometry, under puts and
   ticks. Superblock records carry only the extents that changed, so their
   bytes stay under a tenth of what the disk writes (whole-table records
   wrote about half), and every tick still writes one record per disk. *)
let test_superblock_records_small () =
  let cfg =
    { S.default_config with S.disk = { S.default_config.S.disk with Disk.extent_count = 1024 } }
  in
  let node = Rpc.Node.create ~disks:1 cfg in
  let store = Rpc.Node.store node ~disk:0 in
  let count name = Obs.counter_value (S.obs store) name in
  let rng = Util.Rng.of_int 7 in
  for i = 0 to 1_999 do
    let key = Printf.sprintf "k%03d" (Util.Rng.int rng 500) in
    let value = String.make (100 + Util.Rng.int rng 300) 'v' in
    (match Rpc.Node.handle node (Rpc.Message.Put { key; value }) with
    | Rpc.Message.Ack -> ()
    | r -> Alcotest.failf "put %d: %a" i Rpc.Message.pp_response r);
    if i land 63 = 63 then begin
      let records = count "superblock.record" in
      Alcotest.(check int) "no maintenance errors" 0 (Rpc.Node.tick node).Rpc.Node.errors;
      Alcotest.(check int) "one record per tick" (records + 1) (count "superblock.record")
    end
  done;
  let record_bytes = count "superblock.record_bytes" and disk_bytes = count "disk.bytes_written" in
  Alcotest.(check bool)
    (Printf.sprintf "record bytes %d under a tenth of disk bytes %d" record_bytes disk_bytes)
    true
    (record_bytes > 0 && 10 * record_bytes < disk_bytes)

(* Overwrites fill a 64-extent disk several times over. Without ticks the
   store reclaims only when an allocation fails; a tick every eight puts
   reclaims ahead, so no put has to garbage-collect and every key still
   reads back. *)
let test_tick_reclaims_ahead () =
  let cfg =
    {
      S.default_config with
      S.disk = { Disk.extent_count = 64; pages_per_extent = 8; page_size = 512 };
    }
  in
  let run ~tick =
    let node = Rpc.Node.create ~disks:1 cfg in
    let store = Rpc.Node.store node ~disk:0 in
    let value i = String.make (30 + (i mod 17)) (Char.chr (97 + (i mod 26))) in
    let last = Array.make 24 0 in
    for i = 0 to 1_999 do
      let key = Printf.sprintf "k%02d" (i mod 24) in
      (match Rpc.Node.handle node (Rpc.Message.Put { key; value = value i }) with
      | Rpc.Message.Ack -> last.(i mod 24) <- i
      | r -> Alcotest.failf "put %d: %a" i Rpc.Message.pp_response r);
      if tick && i mod 8 = 7 then
        Alcotest.(check int) "no maintenance errors" 0 (Rpc.Node.tick node).Rpc.Node.errors
    done;
    for k = 0 to 23 do
      let key = Printf.sprintf "k%02d" k in
      match Rpc.Node.handle node (Rpc.Message.Get { key }) with
      | Rpc.Message.Value (Some v) when v = value last.(k) -> ()
      | r -> Alcotest.failf "get %s: %a" key Rpc.Message.pp_response r
    done;
    let count name = Obs.counter_value (S.obs store) name in
    (count "store.put.gc_fallback", count "store.reclaim")
  in
  let fallbacks, _ = run ~tick:false in
  Alcotest.(check bool) "without ticks, puts garbage-collect" true (fallbacks > 0);
  let fallbacks, reclaims = run ~tick:true in
  Alcotest.(check int) "with ticks, no put garbage-collects" 0 fallbacks;
  Alcotest.(check bool) "ticks reclaimed" true (reclaims > 0)

let () =
  Alcotest.run "rpc"
    [
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes_rejected;
          QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_degraded_roundtrip;
          Alcotest.test_case "quorum-ack lagging bound" `Quick test_quorum_ack_lagging_bound;
          Alcotest.test_case "scan max_results bound" `Quick test_scan_max_results_bound;
        ] );
      ( "node",
        [
          Alcotest.test_case "put/get across disks" `Quick test_put_get_across_disks;
          Alcotest.test_case "list unions disks" `Quick test_list_unions_disks;
          Alcotest.test_case "remove/return disk" `Quick test_remove_return_disk;
          Alcotest.test_case "bulk delete" `Quick test_bulk_delete;
          Alcotest.test_case "batch request dispatch" `Quick test_batch_request_dispatch;
          QCheck_alcotest.to_alcotest prop_batch_one_bad_op;
          QCheck_alcotest.to_alcotest prop_scan_pagination;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "request counters per kind" `Quick test_request_counters_per_kind;
          Alcotest.test_case "stats wire roundtrip" `Quick test_stats_wire_roundtrip;
          Alcotest.test_case "handle wire" `Quick test_handle_wire;
          Alcotest.test_case "bad disk" `Quick test_bad_disk;
          Alcotest.test_case "migrate" `Quick test_migrate;
          Alcotest.test_case "tick" `Quick test_tick;
          Alcotest.test_case "tick reclaims ahead" `Quick test_tick_reclaims_ahead;
          Alcotest.test_case "superblock records stay small" `Quick
            test_superblock_records_small;
          QCheck_alcotest.to_alcotest prop_node_matches_model;
        ] );
    ]
