(* Generated inputs and the client-side model they are checked against.

   Everything a run sends is drawn from the seed before the clock starts;
   the system under test only ever receives these strings. *)

let key i = Printf.sprintf "user%06d" i
let batch_len = 16
let scan_len = 50

let value_pool rng ~count ~bytes =
  Array.init count (fun _ -> String.init bytes (fun _ -> Char.chr (97 + Util.Rng.int rng 26)))

(* Zipf([theta]) over [n] keys; ranks are scattered over the key space so
   the hot keys land on every disk. *)
let zipf rng ~n ~theta =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let perm = Array.init n Fun.id in
  Util.Rng.shuffle rng perm;
  let total = !acc in
  fun () ->
    let u = Util.Rng.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    perm.(!lo)

let uniform rng ~n () = Util.Rng.int rng n

(* A client op over key indices; values are indices into the value pool.
   [Scan j] reads the [scan_len] keys starting at sorted position [j]. *)
type op = Get of int | Put of int * int | Batch of (int * int) list | Scan of int

(* [batch_len] distinct keys, each with a value. *)
let gen_batch rng ~values ~pick =
  let seen = Hashtbl.create batch_len in
  let rec go acc n =
    if n = 0 then acc
    else
      let k = pick () in
      if Hashtbl.mem seen k then go acc n
      else begin
        Hashtbl.add seen k ();
        go ((k, Util.Rng.int rng values) :: acc) (n - 1)
      end
  in
  go [] batch_len

(* [mix] is (get, put, batch) in per mille; the rest are scans. *)
let gen_ops rng ~count ~keys ~values ~pick ~mix:(g, p, b) =
  Array.init count (fun _ ->
      let r = Util.Rng.int rng 1000 in
      if r < g then Get (pick ())
      else if r < g + p then
        let k = pick () in
        Put (k, Util.Rng.int rng values)
      else if r < g + p + b then Batch (gen_batch rng ~values ~pick)
      else Scan (Util.Rng.int rng (keys - scan_len)))

(* Every key is preloaded and never deleted, so the model is the value
   index last acknowledged per key; [-1] marks a key whose last write
   failed (its value is indeterminate and no longer checked). *)
type kv = {
  keys : string array;  (** sorted *)
  pool : string array;
  model : int array;
  mutable user_bytes : int;  (** key and value bytes acknowledged *)
}

let kv_create ~keys ~pool =
  { keys = Array.init keys key; pool; model = Array.make keys 0; user_bytes = 0 }

(* The preload values, nothing acknowledged yet. *)
let kv_reset kv =
  Array.iteri (fun k _ -> kv.model.(k) <- k mod Array.length kv.pool) kv.model;
  kv.user_bytes <- 0

let acked kv k v =
  kv.model.(k) <- v;
  kv.user_bytes <- kv.user_bytes + String.length kv.keys.(k) + String.length kv.pool.(v)

let indeterminate kv k = kv.model.(k) <- -1

let live_bytes kv =
  let n = ref 0 in
  Array.iteri
    (fun k v -> if v >= 0 then n := !n + String.length kv.keys.(k) + String.length kv.pool.(v))
    kv.model;
  !n

let check_value what kv k got =
  let v = kv.model.(k) in
  if v >= 0 && got <> Some kv.pool.(v) then
    Stats.wrong "%s %s: %s" what kv.keys.(k)
      (match got with None -> "missing" | Some _ -> "stale or foreign value")

let check_scan what kv j items =
  let rec go i = function
    | [] -> if i <> scan_len then Stats.wrong "%s from %s: %d items" what kv.keys.(j) i
    | (k, v) :: rest ->
        if i >= scan_len || k <> kv.keys.(j + i) then
          Stats.wrong "%s from %s: unexpected key %s" what kv.keys.(j) k
        else begin
          check_value what kv (j + i) (Some v);
          go (i + 1) rest
        end
  in
  go 0 items
