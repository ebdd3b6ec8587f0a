type error =
  | Truncated of { wanted : int; available : int }
  | Bad_magic of { expected : string; found : string }
  | Bad_checksum
  | Invalid of string

let pp_error fmt = function
  | Truncated { wanted; available } ->
    Format.fprintf fmt "truncated input: wanted %d bytes, %d available" wanted available
  | Bad_magic { expected; found } ->
    Format.fprintf fmt "bad magic: expected %S, found %S" expected found
  | Bad_checksum -> Format.pp_print_string fmt "checksum mismatch"
  | Invalid msg -> Format.fprintf fmt "invalid encoding: %s" msg

let error_to_string e = Format.asprintf "%a" pp_error e

let equal_sub s i t j n =
  let rec same k = k = n || (String.get s (i + k) = String.get t (j + k) && same (k + 1)) in
  same 0

module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 64) () = Buffer.create capacity
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))
  let u16 t v = Buffer.add_uint16_le t (v land 0xFFFF)
  let u32 t v = Buffer.add_int32_le t v
  let u64 t v = Buffer.add_int64_le t v

  let uint t n =
    assert (n >= 0);
    u64 t (Int64.of_int n)

  let raw_string = Buffer.add_string

  let lstring t s =
    u32 t (Int32.of_int (String.length s));
    raw_string t s

  let list ?(count = fun t n -> u32 t (Int32.of_int n)) t f xs =
    count t (List.length xs);
    List.iter (f t) xs

  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string ?(pos = 0) data = { data; pos }
  let pos t = t.pos
  let remaining t = String.length t.data - t.pos

  (* Fixed-width fields are read in place: [advance] checks that [n]
     bytes remain and returns their offset, so only [raw] and [lstring]
     copy. *)
  let advance t n =
    if n < 0 then Error (Invalid "negative length")
    else if remaining t < n then Error (Truncated { wanted = n; available = remaining t })
    else begin
      let at = t.pos in
      t.pos <- at + n;
      Ok at
    end

  let take t n =
    match advance t n with
    | Error _ as e -> e
    | Ok at -> Ok (String.sub t.data at n)

  let u8 t =
    match advance t 1 with
    | Error _ as e -> e
    | Ok at -> Ok (Char.code (String.get t.data at))

  let u16 t =
    match advance t 2 with
    | Error _ as e -> e
    | Ok at -> Ok (String.get_uint16_le t.data at)

  let u32 t =
    match advance t 4 with
    | Error _ as e -> e
    | Ok at -> Ok (String.get_int32_le t.data at)

  let u64 t =
    match advance t 8 with
    | Error _ as e -> e
    | Ok at -> Ok (String.get_int64_le t.data at)

  let uint t =
    match u64 t with
    | Error _ as e -> e
    | Ok v ->
      if v < 0L || v > Int64.of_int max_int then Error (Invalid "u64 out of int range")
      else Ok (Int64.to_int v)

  let raw t n = take t n

  let skip t n =
    match advance t n with
    | Error _ as e -> e
    | Ok _ -> Ok ()

  let lstring ?(max = 1 lsl 30) t =
    match u32 t with
    | Error _ as e -> e
    | Ok len32 ->
      let len = Int32.to_int len32 in
      if len < 0 || len > max then Error (Invalid "length prefix out of range")
      else take t len

  let list ?(count = fun t -> Result.map Int32.to_int (u32 t)) ~max ~what t f =
    match count t with
    | Error _ as e -> e
    | Ok n ->
      if n < 0 || n > max then Error (Invalid (what ^ " count"))
      else begin
        let rec go acc i =
          if i = n then Ok (List.rev acc)
          else
            match f t with
            | Error _ as e -> e
            | Ok x -> go (x :: acc) (i + 1)
        in
        go [] 0
      end

  let magic t expected =
    let n = String.length expected in
    match advance t n with
    | Error _ as e -> e
    | Ok at ->
      if equal_sub t.data at expected 0 n then Ok ()
      else Error (Bad_magic { expected; found = String.sub t.data at n })

  let expect_end t =
    if remaining t = 0 then Ok () else Error (Invalid "trailing bytes after value")
end

module Syntax = struct
  let ( let* ) r f = Result.bind r f
  let ( let+ ) r f = Result.map f r
end
