(* The splitmix64 state lives unboxed in 8 bytes: reading and writing it
   through [Bytes.get_int64_le]/[set_int64_le] keeps every intermediate in
   registers, where a [mutable state : int64] field would box a fresh
   [Int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)
let copy = Bytes.copy

(* splitmix64 finalizer: advance by the golden gamma, then mix. *)
let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let split t =
  let seed = int64 t in
  create seed

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (int64 t) 1L = 1L

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  b

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let weighted t choices =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 choices in
  if total <= 0 then invalid_arg "Rng.weighted: no positive weight";
  let target = int t total in
  let rec go acc = function
    | [] -> assert false
    | (w, v) :: rest ->
      let acc = acc + max 0 w in
      if target < acc then v else go acc rest
  in
  go 0 choices
