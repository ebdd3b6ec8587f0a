(* In-memory spans recorded around the benchmark's own calls into each
   layer. Single-domain: only the client domain records. A span has a name,
   start and end (monotonic ns), the span that was open when it began
   (its parent) and the request id of the client op it belongs to. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let on = ref false
let request = ref 0
let current = ref (-1)

type buf = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable rid : int array;
}

let b = { n = 0; name = [||]; start = [||]; stop = [||]; parent = [||]; rid = [||] }

let grow () =
  let cap = max 4096 (2 * b.n) in
  let ext a z =
    let a' = Array.make cap z in
    Array.blit a 0 a' 0 b.n;
    a'
  in
  b.name <- ext b.name "";
  b.start <- ext b.start 0;
  b.stop <- ext b.stop 0;
  b.parent <- ext b.parent 0;
  b.rid <- ext b.rid 0

let next_request () = incr request

(* [with_ name f] runs [f] inside a span when recording is on; otherwise it
   is one branch. *)
let with_ name f =
  if not !on then f ()
  else begin
    if b.n = Array.length b.name then grow ();
    let i = b.n in
    b.n <- i + 1;
    b.name.(i) <- name;
    b.parent.(i) <- !current;
    b.rid.(i) <- !request;
    let saved = !current in
    current := i;
    b.start.(i) <- now ();
    let finish () =
      b.stop.(i) <- now ();
      current := saved
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let count () = b.n

(* Per-name (calls, total ns, self ns). Self time is a span's duration
   minus the time its child spans cover; children of one span run
   sequentially on one domain, so they never overlap. *)
let child_cover () =
  let child = Array.make b.n 0 in
  for i = 0 to b.n - 1 do
    let p = b.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (b.stop.(i) - b.start.(i))
  done;
  child

let summary () =
  let child = child_cover () in
  let tbl = Hashtbl.create 32 in
  for i = 0 to b.n - 1 do
    let dur = b.stop.(i) - b.start.(i) in
    let calls, total, self =
      Option.value (Hashtbl.find_opt tbl b.name.(i)) ~default:(0, 0, 0)
    in
    Hashtbl.replace tbl b.name.(i) (calls + 1, total + dur, self + dur - child.(i))
  done;
  tbl

(* Client ops are root spans named [op.*]; probes are roots of their own.
   Returns the op count, their summed duration, and how much of it no
   child span covers. *)
let roots () =
  let child = child_cover () in
  let total = ref 0 and uncovered = ref 0 in
  for i = 0 to b.n - 1 do
    if b.parent.(i) < 0 && not (String.starts_with ~prefix:"probe." b.name.(i)) then begin
      total := !total + (b.stop.(i) - b.start.(i));
      uncovered := !uncovered + (b.stop.(i) - b.start.(i) - child.(i))
    end
  done;
  (!total, !uncovered)

(* One JSON object per span, in start order. *)
let write path =
  let oc = open_out path in
  for i = 0 to b.n - 1 do
    Printf.fprintf oc "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
      i b.name.(i) b.start.(i) b.stop.(i) b.parent.(i) b.rid.(i)
  done;
  close_out oc
