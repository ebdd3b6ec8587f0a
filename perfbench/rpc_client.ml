(* A client of [Rpc.Node] over the wire codec. *)

open Inputs
open Measure
module M = Rpc.Message
module Node = Rpc.Node

(* Client call to decoded reply. Traced, the node's [handle_wire] is taken
   apart into its codec and dispatch calls so each gets a span. *)
let call node req =
  let decoded =
    if !Span.on then begin
      let wire = Span.with_ "rpc.codec" (fun () -> M.encode_request req) in
      let resp =
        match Span.with_ "rpc.codec" (fun () -> M.decode_request wire) with
        | Ok r -> Span.with_ "rpc.handle" (fun () -> Node.handle node r)
        | Error _ -> M.Error_response "bad request"
      in
      let wire = Span.with_ "rpc.codec" (fun () -> M.encode_response resp) in
      Span.with_ "rpc.codec" (fun () -> M.decode_response wire)
    end
    else M.decode_response (Node.handle_wire node (M.encode_request req))
  in
  match decoded with Ok r -> r | Error _ -> M.Error_response "undecodable response"

let preload node kv =
  Array.iteri
    (fun k key ->
      let v = kv.model.(k) in
      (match call node (M.Put { key; value = kv.pool.(v) }) with
      | M.Ack -> acked kv k v
      | _ -> Stats.wrong "preload %s failed" key);
      if k land 63 = 63 then ignore (Node.tick node))
    kv.keys;
  ignore (Node.tick node)

let op node kv = function
  | Get k -> (
      match client "op.get" get_s (fun () -> call node (M.Get { key = kv.keys.(k) })) with
      | M.Value v -> check_value "get" kv k v
      | M.Error_response _ -> Stats.fail "rpc"
      | _ -> Stats.wrong "get %s: unexpected response" kv.keys.(k))
  | Put (k, v) -> (
      match
        client "op.put" put_s (fun () -> call node (M.Put { key = kv.keys.(k); value = kv.pool.(v) }))
      with
      | M.Ack -> acked kv k v
      | M.Error_response _ ->
          Stats.fail "rpc";
          indeterminate kv k
      | _ ->
          Stats.wrong "put %s: unexpected response" kv.keys.(k);
          indeterminate kv k)
  | Batch items -> (
      let ops = List.map (fun (k, v) -> M.Batch_put { key = kv.keys.(k); value = kv.pool.(v) }) items in
      match client ~n:batch_len "op.batch" batch_s (fun () -> call node (M.Batch_request { ops })) with
      | M.Batch_response { statuses } when List.length statuses = batch_len ->
          List.iter2
            (fun (k, v) -> function
              | M.Op_ok | M.Op_quorum _ -> acked kv k v
              | M.Op_error _ ->
                  Stats.fail "rpc";
                  indeterminate kv k)
            items statuses
      | resp ->
          (match resp with
          | M.Error_response _ -> Stats.fail "rpc"
          | _ -> Stats.wrong "batch: unexpected response");
          List.iter (fun (k, _) -> indeterminate kv k) items)
  | Scan j -> (
      let req =
        M.Scan_request
          {
            lo = Some kv.keys.(j);
            hi = Some kv.keys.(j + scan_len - 1);
            after = None;
            max_results = 2 * scan_len;
          }
      in
      match client "op.scan" scan_s (fun () -> call node req) with
      | M.Scan_response { items; more = false } -> check_scan "scan" kv j items
      | M.Error_response _ -> Stats.fail "rpc"
      | _ -> Stats.wrong "scan from %s: unexpected response" kv.keys.(j))

(* Maintenance: a tick flushes every disk, and each flush is an attempted
   op. *)
let tick node =
  let r = Span.with_ "rpc.tick" (fun () -> Node.tick node) in
  Stats.attempt r.Node.disks;
  for _ = 1 to r.Node.errors do
    Stats.fail "maint"
  done

let read_back node kv =
  Array.iteri
    (fun k key ->
      Stats.attempt 1;
      match call node (M.Get { key }) with
      | M.Value v -> check_value "read-back" kv k v
      | M.Error_response _ -> Stats.fail "lost"
      | _ -> Stats.wrong "read-back %s: unexpected response" key)
    kv.keys
