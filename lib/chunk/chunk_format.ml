open Util

type owner =
  | Shard of string
  | Index_run of int

let owner_equal a b =
  match a, b with
  | Shard k1, Shard k2 -> String.equal k1 k2
  | Index_run r1, Index_run r2 -> r1 = r2
  | (Shard _ | Index_run _), _ -> false

let pp_owner fmt = function
  | Shard key -> Format.fprintf fmt "shard %S" key
  | Index_run id -> Format.fprintf fmt "index run %d" id

let magic = "SC"

type chunk = {
  owner : owner;
  payload : string;
  uuid : Uuid.t;
}

let encode_owner w = function
  | Shard key ->
    Codec.Writer.u8 w 0;
    Codec.Writer.lstring w key
  | Index_run id ->
    Codec.Writer.u8 w 1;
    Codec.Writer.uint w id

let decode_owner r =
  let open Codec.Syntax in
  let* tag = Codec.Reader.u8 r in
  match tag with
  | 0 ->
    let+ key = Codec.Reader.lstring r in
    Shard key
  | 1 ->
    let+ id = Codec.Reader.uint r in
    Index_run id
  | _ -> Error (Codec.Invalid "owner tag")

let owner_len = function
  | Shard key -> 1 + 4 + String.length key
  | Index_run _ -> 1 + 8

(* magic (2) + frame_len (4) + crc (4) *)
let prefix_len = 10

let frame_len ~owner ~payload_len = prefix_len + owner_len owner + Uuid.size + payload_len + Uuid.size

let encode ~uuid ~owner ~payload =
  let total = frame_len ~owner ~payload_len:(String.length payload) in
  let w = Codec.Writer.create ~capacity:total () in
  Codec.Writer.raw_string w magic;
  Codec.Writer.u32 w (Int32.of_int total);
  Codec.Writer.u32 w (Crc32.digest_string payload);
  encode_owner w owner;
  Codec.Writer.raw_string w (Uuid.to_string uuid);
  Codec.Writer.raw_string w payload;
  Codec.Writer.raw_string w (Uuid.to_string uuid);
  let frame = Codec.Writer.contents w in
  assert (String.length frame = total);
  frame

let decode_prefix s =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string s in
  let* () = Codec.Reader.magic r magic in
  let* len32 = Codec.Reader.u32 r in
  let len = Int32.to_int len32 in
  if len < prefix_len + Uuid.size + Uuid.size + 1 then Error (Codec.Invalid "frame length")
  else Ok len

(* The head and tail UUIDs are compared, and the payload checksummed,
   where they sit in the frame; only the payload and the UUID are copied
   out, once each. *)
let decode ?(check_crc = true) frame =
  let open Codec.Syntax in
  let r = Codec.Reader.of_string frame in
  let* () = Codec.Reader.magic r magic in
  let* len32 = Codec.Reader.u32 r in
  let total = Int32.to_int len32 in
  if total <> String.length frame then Error (Codec.Invalid "frame length mismatch")
  else
    let* crc = Codec.Reader.u32 r in
    let* owner = decode_owner r in
    let head = Codec.Reader.pos r in
    let* () = Codec.Reader.skip r Uuid.size in
    let payload_off = head + Uuid.size in
    let payload_len = total - payload_off - Uuid.size in
    if payload_len < 0 then Error (Codec.Invalid "negative payload length")
    else if not (Codec.equal_sub frame head frame (payload_off + payload_len) Uuid.size) then
      Error (Codec.Invalid "uuid mismatch")
    else if check_crc && Crc32.digest_string ~off:payload_off ~len:payload_len frame <> crc then
      Error Codec.Bad_checksum
    else
      Ok
        {
          owner;
          payload = String.sub frame payload_off payload_len;
          uuid = Uuid.of_string_exn (String.sub frame head Uuid.size);
        }
