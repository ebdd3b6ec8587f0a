module S = Store.Default

type t = {
  stores : S.t array;
  (* Explicit placements from control-plane migrations override hashing;
     in S3 this mapping lives in the metadata subsystem. *)
  placements : (string, int) Hashtbl.t;
  trace : Tracecheck.Trace.Recorder.t option;
  obs : Obs.t;
  m_errors : Obs.Counter.t;
  m_tick_errors : Obs.Counter.t;
  m_batch_ops : Obs.Histogram.t;
  m_requests : Obs.Counter.t option array;
      (** [rpc.request] per request kind, registered on the kind's first
          request so a snapshot lists only the kinds that were served *)
}

(* A request's kind: its slot in [m_requests] and its [kind] label. *)
let request_kind = function
  | Message.Put _ -> (0, "put")
  | Message.Get _ -> (1, "get")
  | Message.Delete _ -> (2, "delete")
  | Message.List -> (3, "list")
  | Message.Remove_disk _ -> (4, "remove_disk")
  | Message.Return_disk _ -> (5, "return_disk")
  | Message.Bulk_delete _ -> (6, "bulk_delete")
  | Message.Migrate _ -> (7, "migrate")
  | Message.Node_stats -> (8, "node_stats")
  | Message.Batch_request _ -> (9, "batch")
  | Message.Scan_request _ -> (10, "scan")

let request_kinds = 11

let create ?obs ?trace ?(disks = 4) (config : S.config) =
  if disks <= 0 then invalid_arg "Node.create: need at least one disk";
  let obs = match obs with Some o -> o | None -> Obs.create ~scope:"rpc" () in
  {
    stores =
      Array.init disks (fun i ->
          S.create { config with S.seed = Int64.add config.S.seed (Int64.of_int i) });
    placements = Hashtbl.create 16;
    trace;
    obs;
    m_errors = Obs.counter obs "rpc.error";
    m_tick_errors = Obs.counter obs "rpc.tick_error";
    m_batch_ops =
      Obs.histogram ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ] obs "rpc.batch_ops";
    m_requests = Array.make request_kinds None;
  }

let disk_count t = Array.length t.stores
let obs t = t.obs

let request_counter t req =
  let slot, kind = request_kind req in
  match t.m_requests.(slot) with
  | Some c -> c
  | None ->
    let c = Obs.counter ~labels:[ ("kind", kind) ] t.obs "rpc.request" in
    t.m_requests.(slot) <- Some c;
    c

let disk_of_key t key =
  match Hashtbl.find_opt t.placements key with
  | Some disk -> disk
  | None ->
    Int32.to_int (Int32.logand (Util.Crc32.digest_string key) 0x7FFFFFFFl)
    mod Array.length t.stores

let store t ~disk =
  if disk < 0 || disk >= Array.length t.stores then invalid_arg "Node.store: bad disk";
  t.stores.(disk)

let err fmt = Format.kasprintf (fun msg -> Message.Error_response msg) fmt

(* Flatten one store's registry into wire samples tagged with its disk
   slot; histograms ship their [.count] / [.sum] moments. *)
let metrics_of_store ~disk store =
  let labels ls = ("disk", string_of_int disk) :: ls in
  List.concat_map
    (fun (s : Obs.sample) ->
      match s.Obs.value with
      | Obs.Counter_v n ->
        [ { Message.metric_name = s.Obs.name; labels = labels s.Obs.labels; value = float_of_int n } ]
      | Obs.Gauge_v v -> [ { Message.metric_name = s.Obs.name; labels = labels s.Obs.labels; value = v } ]
      | Obs.Histogram_v { count; sum; _ } ->
        [
          {
            Message.metric_name = s.Obs.name ^ ".count";
            labels = labels s.Obs.labels;
            value = float_of_int count;
          };
          { Message.metric_name = s.Obs.name ^ ".sum"; labels = labels s.Obs.labels; value = sum };
        ])
    (Obs.snapshot (S.obs store))

(* A scan page's lower bound. The continuation token is exclusive: page
   N+1 starts strictly after the last key of page N, so the bound is the
   tighter of [lo] and [after]. *)
let effective_lo ~lo ~after =
  match (lo, after) with
  | Some l, Some a -> Some (if String.compare l a >= 0 then l else a)
  | None, Some a -> Some a
  | _, None -> lo

let handle_inner t req =
  match req with
  | Message.Put { key; value } -> (
    match S.put t.stores.(disk_of_key t key) ~key ~value with
    | Ok _ -> Message.Ack
    | Error e -> err "%a" S.pp_error e)
  | Message.Get { key } -> (
    match S.get t.stores.(disk_of_key t key) ~key with
    | Ok v -> Message.Value v
    | Error e -> err "%a" S.pp_error e)
  | Message.Delete { key } -> (
    match S.delete t.stores.(disk_of_key t key) ~key with
    | Ok _ -> Message.Ack
    | Error e -> err "%a" S.pp_error e)
  | Message.List -> (
    (* Union over in-service disks; an out-of-service disk makes the
       listing partial, which the control plane must know about. *)
    let out_of_service =
      Array.exists (fun s -> not (S.in_service s)) t.stores
    in
    if out_of_service then err "listing unavailable: some disks out of service"
    else
      let rec collect i acc =
        if i = Array.length t.stores then Ok acc
        else
          match S.list t.stores.(i) with
          | Ok keys -> collect (i + 1) (List.rev_append keys acc)
          | Error e -> Error e
      in
      match collect 0 [] with
      | Ok keys -> Message.Keys (List.sort String.compare keys)
      | Error e -> err "%a" S.pp_error e)
  | Message.Remove_disk { disk } -> (
    if disk < 0 || disk >= Array.length t.stores then err "no such disk %d" disk
    else
      match S.remove_from_service t.stores.(disk) with
      | Ok () -> Message.Ack
      | Error e -> err "%a" S.pp_error e)
  | Message.Return_disk { disk } -> (
    if disk < 0 || disk >= Array.length t.stores then err "no such disk %d" disk
    else
      match S.return_to_service t.stores.(disk) with
      | Ok () -> Message.Ack
      | Error e -> err "%a" S.pp_error e)
  | Message.Bulk_delete { keys } -> (
    let rec go = function
      | [] -> Message.Ack
      | key :: rest -> (
        match S.delete t.stores.(disk_of_key t key) ~key with
        | Ok _ -> go rest
        | Error e -> err "bulk delete %S: %a" key S.pp_error e)
    in
    go keys)
  | Message.Migrate { key; to_disk } ->
    if to_disk < 0 || to_disk >= Array.length t.stores then err "no such disk %d" to_disk
    else begin
      let from_disk = disk_of_key t key in
      if from_disk = to_disk then Message.Ack
      else begin
        (* Copy, commit the new placement, then delete the source copy —
           the shard is reachable at every step. *)
        match S.get t.stores.(from_disk) ~key with
        | Error e -> err "%a" S.pp_error e
        | Ok None -> err "no such shard %S" key
        | Ok (Some value) -> (
          match S.put t.stores.(to_disk) ~key ~value with
          | Error e -> err "%a" S.pp_error e
          | Ok _ -> (
            Hashtbl.replace t.placements key to_disk;
            match S.delete t.stores.(from_disk) ~key with
            | Ok _ -> Message.Ack
            | Error e -> err "%a" S.pp_error e))
      end
    end
  | Message.Batch_request { ops } ->
    let n = List.length ops in
    Obs.Histogram.observe t.m_batch_ops (float_of_int n);
    let statuses = Array.make n Message.Op_ok in
    let op_error i fmt =
      Format.kasprintf (fun msg -> statuses.(i) <- Message.Op_error msg) fmt
    in
    (* Semantic validation happens here, not in the decoder (which stays
       total and structural): a corrupt or oversized op fails alone and the
       rest of the batch proceeds. *)
    let validate op =
      let check_key key =
        if String.length key = 0 then Some "empty key"
        else if String.length key > Message.max_op_key_bytes then
          Some
            (Printf.sprintf "key too large (%d > %d bytes)" (String.length key)
               Message.max_op_key_bytes)
        else None
      in
      match op with
      | Message.Batch_put { key; value } -> (
        match check_key key with
        | Some _ as e -> e
        | None ->
          if String.length value > Message.max_op_value_bytes then
            Some
              (Printf.sprintf "value too large (%d > %d bytes)" (String.length value)
                 Message.max_op_value_bytes)
          else None)
      | Message.Batch_delete { key } -> check_key key
    in
    (* Group valid ops by target disk, preserving request order within each
       disk, so every disk sees one group-committed batch per kind-run
       instead of N scalar calls. *)
    let buckets = Array.make (Array.length t.stores) [] in
    List.iteri
      (fun i op ->
        match validate op with
        | Some msg -> op_error i "%s" msg
        | None ->
          let key =
            match op with
            | Message.Batch_put { key; _ } | Message.Batch_delete { key } -> key
          in
          let disk = disk_of_key t key in
          buckets.(disk) <- (i, op) :: buckets.(disk))
      ops;
    Array.iteri
      (fun disk bucket ->
        let store = t.stores.(disk) in
        (* Maximal same-kind runs keep request order while still batching:
           put,put,delete,put becomes put_batch[2]; delete_batch[1];
           put_batch[1]. *)
        let flush_run run =
          match List.rev run with
          | [] -> ()
          | run -> (
            let puts, dels =
              List.partition_map
                (function
                  | _, Message.Batch_put { key; value } -> Either.Left (key, value)
                  | _, Message.Batch_delete { key } -> Either.Right key)
                run
            in
            (* A run holds one kind of op, so one of the two is empty. *)
            match if dels = [] then S.put_batch store puts else S.delete_batch store dels with
            | Ok { S.results; barrier = _ } ->
              List.iter2
                (fun (i, _) result ->
                  match result with
                  | Ok _ -> ()
                  | Error e -> op_error i "%a" S.pp_error e)
                run results
            | Error e ->
              let msg = Format.asprintf "%a" S.pp_error e in
              List.iter (fun (i, _) -> op_error i "%s" msg) run)
        in
        let same_kind a b =
          match (a, b) with
          | Message.Batch_put _, Message.Batch_put _
          | Message.Batch_delete _, Message.Batch_delete _ -> true
          | _ -> false
        in
        let run =
          List.fold_left
            (fun run (i, op) ->
              match run with
              | (_, prev) :: _ when not (same_kind prev op) ->
                flush_run run;
                [ (i, op) ]
              | _ -> (i, op) :: run)
            [] (List.rev bucket)
        in
        flush_run run)
      buckets;
    Message.Batch_response { statuses = Array.to_list statuses }
  | Message.Scan_request { lo; hi; after; max_results } -> (
    if max_results <= 0 then err "scan max_results must be positive"
    else begin
      (* Keys are hashed across disks, so one page is a merge over every
         disk; as with List, a partial union would silently drop shards. *)
      let out_of_service = Array.exists (fun s -> not (S.in_service s)) t.stores in
      if out_of_service then err "scan unavailable: some disks out of service"
      else begin
        let lo = effective_lo ~lo ~after in
        let rec collect i acc =
          if i = Array.length t.stores then Ok acc
          else
            match S.scan t.stores.(i) ?lo ?hi () with
            | Ok pairs -> collect (i + 1) (List.rev_append pairs acc)
            | Error e -> Error e
        in
        match collect 0 [] with
        | Error e -> err "%a" S.pp_error e
        | Ok pairs ->
          let pairs =
            List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
            |> List.filter (fun (k, _) ->
                   match after with None -> true | Some a -> String.compare k a > 0)
          in
          let cap = min max_results Message.max_scan_items in
          let rec take n = function
            | rest when n = 0 -> ([], rest <> [])
            | [] -> ([], false)
            | pair :: rest ->
              let page, more = take (n - 1) rest in
              (pair :: page, more)
          in
          let items, more = take cap pairs in
          Message.Scan_response { items; more }
      end
    end)
  | Message.Node_stats ->
    let in_service =
      Array.fold_left (fun acc s -> if S.in_service s then acc + 1 else acc) 0 t.stores
    in
    let keys =
      Array.fold_left
        (fun acc s -> match S.list s with Ok ks -> acc + List.length ks | Error _ -> acc)
        0 t.stores
    in
    let metrics =
      List.concat (List.mapi (fun disk s -> metrics_of_store ~disk s) (Array.to_list t.stores))
    in
    Message.Stats { disks = Array.length t.stores; in_service; keys; metrics }

(* Wire-trace mapping: only the data-plane requests the offline audit
   judges are recorded; control-plane requests (listings, disk service
   moves, migrations, stats) pass through untraced. *)
let trace_op = function
  | Message.Put { key; value } -> Some (Tracecheck.Trace.Put { key; value })
  | Message.Get { key } -> Some (Tracecheck.Trace.Get { key })
  | Message.Delete { key } -> Some (Tracecheck.Trace.Delete { key })
  | Message.Batch_request { ops } ->
    Some
      (Tracecheck.Trace.Batch
         (List.map
            (function
              | Message.Batch_put { key; value } -> (key, Some value)
              | Message.Batch_delete { key } -> (key, None))
            ops))
  | Message.Scan_request { lo; hi; after; max_results = _ } ->
    (* Record the effective lower bound, so the recorded interval matches
       the page actually served. *)
    Some (Tracecheck.Trace.Scan { lo = effective_lo ~lo ~after; hi })
  | Message.List | Message.Remove_disk _ | Message.Return_disk _ | Message.Bulk_delete _
  | Message.Migrate _ | Message.Node_stats -> None

let trace_outcome req resp =
  match (req, resp) with
  | (Message.Put _ | Message.Delete _), Message.Ack -> Tracecheck.Trace.Acked
  | (Message.Put _ | Message.Delete _), _ -> Tracecheck.Trace.Failed
  | Message.Get _, Message.Value v -> Tracecheck.Trace.Got v
  | Message.Get _, _ -> Tracecheck.Trace.Unavailable
  | Message.Batch_request { ops }, Message.Batch_response { statuses }
    when List.length statuses = List.length ops ->
    Tracecheck.Trace.Batch_done
      (List.map
         (function
           | Message.Op_ok | Message.Op_quorum _ -> true
           | Message.Op_error _ -> false)
         statuses)
  | Message.Batch_request _, _ -> Tracecheck.Trace.Failed
  | Message.Scan_request { after; _ }, Message.Scan_response { items; more } ->
    (* A page with a continuation token (or a truncated one) is judged
       only on the keys it yields; a full first page is the range. *)
    Tracecheck.Trace.Scanned { items; complete = after = None && not more }
  | Message.Scan_request _, _ -> Tracecheck.Trace.Unavailable
  | _, _ -> Tracecheck.Trace.Failed

let handle t req =
  Obs.Counter.incr (request_counter t req);
  let resp =
    match trace_op req with
    | None -> handle_inner t req
    | Some op ->
      Tracecheck.Trace.Recorder.bracket t.trace ~src:"rpc" op ~outcome:(trace_outcome req)
        (fun () -> handle_inner t req)
  in
  (match resp with
  | Message.Error_response _ -> Obs.Counter.incr t.m_errors
  | Message.Batch_response { statuses } ->
    List.iter
      (function
        | Message.Op_error _ -> Obs.Counter.incr t.m_errors
        | Message.Op_ok | Message.Op_quorum _ -> ())
      statuses
  | _ -> ());
  resp

let handle_wire t bytes =
  let resp =
    match Message.decode_request bytes with
    | Ok req -> ( try handle t req with e -> err "internal: %s" (Printexc.to_string e))
    | Error e -> err "bad request: %a" Util.Codec.pp_error e
  in
  Message.encode_response resp

type tick_report = { disks : int; errors : int; ios_pumped : int }

let tick t =
  let errors = ref 0 in
  let ios = ref 0 in
  let note = function
    | Ok _ -> ()
    | Error _ ->
      incr errors;
      Obs.Counter.incr t.m_tick_errors
  in
  Array.iter
    (fun s ->
      if S.in_service s then begin
        note (S.flush_index s);
        note (S.flush_superblock s);
        note (S.reclaim_ahead s)
      end;
      ios := !ios + S.pump s 64)
    t.stores;
  { disks = Array.length t.stores; errors = !errors; ios_pumped = !ios }
