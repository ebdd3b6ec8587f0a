(* Latency samples, run accounting and the result line. *)

let us_since t0 = float_of_int (Span.now () - t0) /. 1e3
let s_since t0 = float_of_int (Span.now () - t0) /. 1e9

(* Nearest-rank quantile of [n] values of [a]; 0 when empty. *)
let quantile_of a n q =
  if n = 0 then 0.
  else begin
    let s = Array.sub a 0 n in
    Array.sort Float.compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let median l =
  let a = Array.of_list l in
  quantile_of a (Array.length a) 0.5

(* Values with the time each was taken. *)
module Samples = struct
  type t = { mutable a : float array; mutable at : int array; mutable n : int }

  let create () = { a = Array.make 4096 0.; at = Array.make 4096 0; n = 0 }

  let add t ~at x =
    if t.n = Array.length t.a then begin
      let grow z a =
        let a' = Array.make (2 * t.n) z in
        Array.blit a 0 a' 0 t.n;
        a'
      in
      t.a <- grow 0. t.a;
      t.at <- grow 0 t.at
    end;
    t.a.(t.n) <- x;
    t.at.(t.n) <- at;
    t.n <- t.n + 1

  let count t = t.n
  let quantile t q = quantile_of t.a t.n q

  (* The quantile [q] within each three-second window of the run, median
     over the windows holding at least 50 samples (the whole run's [q] when
     none does). One stall, or a stretch of a few seconds in which a shared
     host runs faster or slower, then moves the figure of one window, not
     of the run. *)
  let windowed t q =
    let windows = Hashtbl.create 64 in
    for i = 0 to t.n - 1 do
      let w = (t.at.(i) - t.at.(0)) / 3_000_000_000 in
      Hashtbl.replace windows w (t.a.(i) :: Option.value (Hashtbl.find_opt windows w) ~default:[])
    done;
    let per_window =
      Hashtbl.fold
        (fun _ vs acc ->
          let a = Array.of_list vs in
          if Array.length a >= 50 then quantile_of a (Array.length a) q :: acc else acc)
        windows []
    in
    if per_window = [] then quantile t q else median per_window
end

(* Time [f ()] in microseconds into [samples]. *)
let timed samples f =
  let t0 = Span.now () in
  let r = f () in
  Samples.add samples ~at:t0 (us_since t0);
  r

(* What one run did and what went wrong. Every failed operation (client
   op, maintenance op or read-back) counts in [failed], by kind; every
   output that disagrees with the client-side model is [wrong] and fails
   the run. *)
type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_wrong : string list;
  errors : (string, int) Hashtbl.t;
}

let run = { attempted = 0; failed = 0; wrong = 0; first_wrong = []; errors = Hashtbl.create 8 }

let attempt n = run.attempted <- run.attempted + n

let fail kind =
  run.failed <- run.failed + 1;
  Hashtbl.replace run.errors kind (1 + Option.value (Hashtbl.find_opt run.errors kind) ~default:0)

let wrong fmt =
  Printf.ksprintf
    (fun msg ->
      run.wrong <- run.wrong + 1;
      if run.wrong <= 5 then run.first_wrong <- msg :: run.first_wrong)
    fmt

(* Failure kinds: [rpc] is an [Error_response] from the node (the wire
   carries the rendered message, not the [Store.Default.error]
   constructor), [maint] a failed maintenance op and [lost] an
   acknowledged write that did not read back. *)
let error_kinds = [ "rpc"; "maint"; "lost" ]

let errors_of kind = Option.value (Hashtbl.find_opt run.errors kind) ~default:0

let metrics : (string * float * string) list ref = ref []
let report name value unit = metrics := (name, value, unit) :: !metrics

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* Print every reported metric by name with its unit, then the result
   line. *)
let finish ~correct =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %16.6f %s\n" n v u) ms;
  let body =
    String.concat ","
      (List.map
         (fun (n, v, u) -> Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" n (json_number v) u)
         ms)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (max 1 run.attempted) run.failed body
