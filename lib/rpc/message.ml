open Util

type batch_op =
  | Batch_put of { key : string; value : string }
  | Batch_delete of { key : string }

type request =
  | Put of { key : string; value : string }
  | Get of { key : string }
  | Delete of { key : string }
  | List
  | Remove_disk of { disk : int }
  | Return_disk of { disk : int }
  | Bulk_delete of { keys : string list }
  | Migrate of { key : string; to_disk : int }
  | Node_stats
  | Batch_request of { ops : batch_op list }
  | Scan_request of {
      lo : string option;
      hi : string option;
      after : string option;
      max_results : int;
    }

type metric = {
  metric_name : string;
  labels : (string * string) list;
  value : float;
}

type op_status = Op_ok | Op_error of string | Op_quorum of { acked : int }

type response =
  | Ack
  | Value of string option
  | Keys of string list
  | Stats of { disks : int; in_service : int; keys : int; metrics : metric list }
  | Error_response of string
  | Batch_response of { statuses : op_status list }
  | Quorum_ack of { acked : int; lagging : int list }
  | Scan_response of { items : (string * string) list; more : bool }

let pp_request fmt = function
  | Put { key; value } -> Format.fprintf fmt "put %S (%d bytes)" key (String.length value)
  | Get { key } -> Format.fprintf fmt "get %S" key
  | Delete { key } -> Format.fprintf fmt "delete %S" key
  | List -> Format.pp_print_string fmt "list"
  | Remove_disk { disk } -> Format.fprintf fmt "remove-disk %d" disk
  | Return_disk { disk } -> Format.fprintf fmt "return-disk %d" disk
  | Bulk_delete { keys } -> Format.fprintf fmt "bulk-delete (%d keys)" (List.length keys)
  | Migrate { key; to_disk } -> Format.fprintf fmt "migrate %S -> disk %d" key to_disk
  | Node_stats -> Format.pp_print_string fmt "stats"
  | Batch_request { ops } ->
    let puts =
      List.length (List.filter (function Batch_put _ -> true | Batch_delete _ -> false) ops)
    in
    Format.fprintf fmt "batch (%d ops: %d puts, %d deletes)" (List.length ops) puts
      (List.length ops - puts)
  | Scan_request { lo; hi; after; max_results } ->
    let b = function None -> "-" | Some k -> Printf.sprintf "%S" k in
    Format.fprintf fmt "scan [%s, %s] after %s max %d" (b lo) (b hi) (b after) max_results

let pp_response fmt = function
  | Ack -> Format.pp_print_string fmt "ack"
  | Value None -> Format.pp_print_string fmt "value: none"
  | Value (Some v) -> Format.fprintf fmt "value: %d bytes" (String.length v)
  | Keys keys -> Format.fprintf fmt "keys: %d" (List.length keys)
  | Stats { disks; in_service; keys; metrics } ->
    Format.fprintf fmt "stats: %d disks (%d in service), %d keys, %d metrics" disks in_service
      keys (List.length metrics)
  | Error_response msg -> Format.fprintf fmt "error: %s" msg
  | Batch_response { statuses } ->
    let failed =
      List.length
        (List.filter (function Op_error _ -> true | Op_ok | Op_quorum _ -> false) statuses)
    in
    Format.fprintf fmt "batch: %d statuses (%d failed)" (List.length statuses) failed
  | Quorum_ack { acked; lagging } ->
    Format.fprintf fmt "quorum-ack: %d replicas (%d lagging)" acked (List.length lagging)
  | Scan_response { items; more } ->
    Format.fprintf fmt "scan page: %d items%s" (List.length items) (if more then " (more)" else "")

let request_equal = Stdlib.( = )
let response_equal = Stdlib.( = )

let magic = "SR"
let max_keys = 1 lsl 20
let max_batch_ops = 1 lsl 16
let max_op_key_bytes = 4096
let max_op_value_bytes = 256 * 1024
let max_lagging_nodes = 4096
let max_scan_items = 1 lsl 16

(* Optional strings travel as a one-byte presence flag + lstring, so the
   empty string and "absent" stay distinguishable on the wire. *)
let encode_opt_string w = function
  | None -> Codec.Writer.u8 w 0
  | Some s ->
    Codec.Writer.u8 w 1;
    Codec.Writer.lstring w s

let decode_opt_string r =
  let open Codec.Syntax in
  let* present = Codec.Reader.u8 r in
  match present with
  | 0 -> Ok None
  | 1 ->
    let+ s = Codec.Reader.lstring r in
    Some s
  | _ -> Error (Codec.Invalid "option presence flag")

let max_metrics = 1 lsl 16
let max_labels = 64

let encode_pair w (k, v) =
  Codec.Writer.lstring w k;
  Codec.Writer.lstring w v

let decode_pair r =
  let open Codec.Syntax in
  let* k = Codec.Reader.lstring r in
  let+ v = Codec.Reader.lstring r in
  (k, v)

(* Values travel as IEEE-754 bits so floats round-trip exactly. *)
let encode_metric w m =
  Codec.Writer.lstring w m.metric_name;
  Codec.Writer.list ~count:Codec.Writer.u8 w encode_pair m.labels;
  Codec.Writer.u64 w (Int64.bits_of_float m.value)

let decode_metric r =
  let open Codec.Syntax in
  let* metric_name = Codec.Reader.lstring r in
  let* labels =
    Codec.Reader.list ~count:Codec.Reader.u8 ~max:max_labels ~what:"label" r decode_pair
  in
  let+ bits = Codec.Reader.u64 r in
  { metric_name; labels; value = Int64.float_of_bits bits }

let encode_batch_op w = function
  | Batch_put { key; value } ->
    Codec.Writer.u8 w 0;
    Codec.Writer.lstring w key;
    Codec.Writer.lstring w value
  | Batch_delete { key } ->
    Codec.Writer.u8 w 1;
    Codec.Writer.lstring w key

let decode_batch_op r =
  let open Codec.Syntax in
  let* kind = Codec.Reader.u8 r in
  match kind with
  | 0 ->
    let* key = Codec.Reader.lstring r in
    let+ value = Codec.Reader.lstring r in
    Batch_put { key; value }
  | 1 ->
    let+ key = Codec.Reader.lstring r in
    Batch_delete { key }
  | _ -> Error (Codec.Invalid "batch op kind")

let encode_status w = function
  | Op_ok -> Codec.Writer.u8 w 0
  | Op_error msg ->
    Codec.Writer.u8 w 1;
    Codec.Writer.lstring w msg
  | Op_quorum { acked } ->
    Codec.Writer.u8 w 2;
    Codec.Writer.uint w acked

let decode_status r =
  let open Codec.Syntax in
  let* tag = Codec.Reader.u8 r in
  match tag with
  | 0 -> Ok Op_ok
  | 1 ->
    let+ msg = Codec.Reader.lstring r in
    Op_error msg
  | 2 ->
    let+ acked = Codec.Reader.uint r in
    Op_quorum { acked }
  | _ -> Error (Codec.Invalid "op status tag")

let with_frame body =
  let w = Codec.Writer.create () in
  Codec.Writer.raw_string w magic;
  body w;
  Codec.Writer.contents w

let encode_request req =
  with_frame (fun w ->
      match req with
      | Put { key; value } ->
        Codec.Writer.u8 w 0;
        Codec.Writer.lstring w key;
        Codec.Writer.lstring w value
      | Get { key } ->
        Codec.Writer.u8 w 1;
        Codec.Writer.lstring w key
      | Delete { key } ->
        Codec.Writer.u8 w 2;
        Codec.Writer.lstring w key
      | List -> Codec.Writer.u8 w 3
      | Remove_disk { disk } ->
        Codec.Writer.u8 w 4;
        Codec.Writer.uint w disk
      | Return_disk { disk } ->
        Codec.Writer.u8 w 5;
        Codec.Writer.uint w disk
      | Bulk_delete { keys } ->
        Codec.Writer.u8 w 6;
        Codec.Writer.list w Codec.Writer.lstring keys
      | Node_stats -> Codec.Writer.u8 w 7
      | Migrate { key; to_disk } ->
        Codec.Writer.u8 w 8;
        Codec.Writer.lstring w key;
        Codec.Writer.uint w to_disk
      | Batch_request { ops } ->
        Codec.Writer.u8 w 9;
        Codec.Writer.list w encode_batch_op ops
      | Scan_request { lo; hi; after; max_results } ->
        Codec.Writer.u8 w 10;
        encode_opt_string w lo;
        encode_opt_string w hi;
        encode_opt_string w after;
        Codec.Writer.uint w max_results)

let decode_request s =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string s in
  let* () = Codec.Reader.magic r magic in
  let* tag = Codec.Reader.u8 r in
  let* req =
    match tag with
    | 0 ->
      let* key = Codec.Reader.lstring r in
      let+ value = Codec.Reader.lstring r in
      Put { key; value }
    | 1 ->
      let+ key = Codec.Reader.lstring r in
      Get { key }
    | 2 ->
      let+ key = Codec.Reader.lstring r in
      Delete { key }
    | 3 -> Ok List
    | 4 ->
      let+ disk = Codec.Reader.uint r in
      Remove_disk { disk }
    | 5 ->
      let+ disk = Codec.Reader.uint r in
      Return_disk { disk }
    | 6 ->
      let+ keys = Codec.Reader.list ~max:max_keys ~what:"string" r Codec.Reader.lstring in
      Bulk_delete { keys }
    | 7 -> Ok Node_stats
    | 8 ->
      let* key = Codec.Reader.lstring r in
      let+ to_disk = Codec.Reader.uint r in
      Migrate { key; to_disk }
    | 9 ->
      let+ ops = Codec.Reader.list ~max:max_batch_ops ~what:"batch op" r decode_batch_op in
      Batch_request { ops }
    | 10 ->
      let* lo = decode_opt_string r in
      let* hi = decode_opt_string r in
      let* after = decode_opt_string r in
      let* max_results = Codec.Reader.uint r in
      if max_results < 0 || max_results > max_scan_items then
        Error (Codec.Invalid "scan max_results")
      else Ok (Scan_request { lo; hi; after; max_results })
    | _ -> Error (Codec.Invalid "request tag")
  in
  let* () = Codec.Reader.expect_end r in
  Ok req

let encode_response resp =
  with_frame (fun w ->
      match resp with
      | Ack -> Codec.Writer.u8 w 0
      | Value None ->
        Codec.Writer.u8 w 1;
        Codec.Writer.u8 w 0
      | Value (Some v) ->
        Codec.Writer.u8 w 1;
        Codec.Writer.u8 w 1;
        Codec.Writer.lstring w v
      | Keys keys ->
        Codec.Writer.u8 w 2;
        Codec.Writer.list w Codec.Writer.lstring keys
      | Stats { disks; in_service; keys; metrics } ->
        Codec.Writer.u8 w 3;
        Codec.Writer.uint w disks;
        Codec.Writer.uint w in_service;
        Codec.Writer.uint w keys;
        Codec.Writer.list w encode_metric metrics
      | Error_response msg ->
        Codec.Writer.u8 w 4;
        Codec.Writer.lstring w msg
      | Batch_response { statuses } ->
        Codec.Writer.u8 w 5;
        Codec.Writer.list w encode_status statuses
      | Quorum_ack { acked; lagging } ->
        Codec.Writer.u8 w 6;
        Codec.Writer.uint w acked;
        Codec.Writer.list w Codec.Writer.uint lagging
      | Scan_response { items; more } ->
        Codec.Writer.u8 w 7;
        Codec.Writer.u8 w (if more then 1 else 0);
        Codec.Writer.list w encode_pair items)

let decode_response s =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string s in
  let* () = Codec.Reader.magic r magic in
  let* tag = Codec.Reader.u8 r in
  let* resp =
    match tag with
    | 0 -> Ok Ack
    | 1 -> (
      let* present = Codec.Reader.u8 r in
      match present with
      | 0 -> Ok (Value None)
      | 1 ->
        let+ v = Codec.Reader.lstring r in
        Value (Some v)
      | _ -> Error (Codec.Invalid "value presence flag"))
    | 2 ->
      let+ keys = Codec.Reader.list ~max:max_keys ~what:"string" r Codec.Reader.lstring in
      Keys keys
    | 3 ->
      let* disks = Codec.Reader.uint r in
      let* in_service = Codec.Reader.uint r in
      let* keys = Codec.Reader.uint r in
      let+ metrics = Codec.Reader.list ~max:max_metrics ~what:"metric" r decode_metric in
      Stats { disks; in_service; keys; metrics }
    | 4 ->
      let+ msg = Codec.Reader.lstring r in
      Error_response msg
    | 5 ->
      let+ statuses = Codec.Reader.list ~max:max_batch_ops ~what:"status" r decode_status in
      Batch_response { statuses }
    | 6 ->
      let* acked = Codec.Reader.uint r in
      let+ lagging =
        Codec.Reader.list ~max:max_lagging_nodes ~what:"lagging" r Codec.Reader.uint
      in
      Quorum_ack { acked; lagging }
    | 7 -> (
      let* more_flag = Codec.Reader.u8 r in
      let* more =
        match more_flag with
        | 0 -> Ok false
        | 1 -> Ok true
        | _ -> Error (Codec.Invalid "scan more flag")
      in
      let+ items = Codec.Reader.list ~max:max_scan_items ~what:"scan item" r decode_pair in
      Scan_response { items; more })
    | _ -> Error (Codec.Invalid "response tag")
  in
  let* () = Codec.Reader.expect_end r in
  Ok resp
