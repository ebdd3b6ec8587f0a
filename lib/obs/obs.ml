module Coverage = struct
  (* Process-wide so blind spots are visible across every instance a
     validation run creates — including instances living on other domains
     during a Par sweep, which is why cells are atomics (totals must be
     exact, not lossy, for parallel sweeps to report the same coverage as
     sequential ones) and the table itself is mutex-guarded (two domains
     may register the same counter name at once). Cells are handed out by
     reference and zeroed (not removed) on reset, so handles cached inside
     instance counters stay live across resets. *)
  let table : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 64
  let table_mutex = Mutex.create ()

  let locked f =
    Mutex.lock table_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock table_mutex) f

  let cell name =
    locked (fun () ->
        match Hashtbl.find_opt table name with
        | Some r -> r
        | None ->
          let r = Atomic.make 0 in
          Hashtbl.add table name r;
          r)

  let hit name = Atomic.incr (cell name)

  let count name =
    match locked (fun () -> Hashtbl.find_opt table name) with
    | Some r -> Atomic.get r
    | None -> 0

  let snapshot () =
    locked (fun () ->
        Hashtbl.fold
          (fun name r acc ->
            let n = Atomic.get r in
            if n > 0 then (name, n) :: acc else acc)
          table [])
    |> List.sort compare

  let reset () = locked (fun () -> Hashtbl.iter (fun _ r -> Atomic.set r 0) table)

  let pp_snapshot fmt () =
    List.iter (fun (name, n) -> Format.fprintf fmt "%-40s %d@." name n) (snapshot ())

  let blind_spots ~expected () = List.filter (fun name -> count name = 0) expected
end

module Counter = struct
  (* Updates come from any domain (the shared store's hot path bumps
     counters from every worker), so the cell is atomic. *)
  type t = {
    v : int Atomic.t;
    coverage : int Atomic.t option;  (** global {!Coverage} cell, when linked *)
  }

  let incr c =
    Atomic.incr c.v;
    match c.coverage with Some r -> Atomic.incr r | None -> ()

  let add c n =
    ignore (Atomic.fetch_and_add c.v n);
    match c.coverage with Some r -> ignore (Atomic.fetch_and_add r n) | None -> ()

  let value c = Atomic.get c.v
end

module Gauge = struct
  (* Plain atomic set/get — last writer wins, no read-modify-write, so no
     CAS loop (a CAS on a boxed float can spin forever when the compiler
     reboxes the compare value). *)
  type t = { g : float Atomic.t }

  let set g v = Atomic.set g.g v
  let set_int g v = Atomic.set g.g (float_of_int v)
  let value g = Atomic.get g.g
end

module Histogram = struct
  (* A histogram observation touches a bucket, the count and the sum
     together; a mutex keeps the triple consistent under multi-domain
     writers (and keeps float sums exact — no lossy racy accumulate). *)
  type t = {
    bounds : float array;  (** inclusive upper bounds, ascending *)
    counts : int array;  (** length [bounds]+1; last is overflow *)
    mutable count : int;
    mutable sum : float;
    m : Mutex.t;
  }

  let locked h f =
    Mutex.lock h.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock h.m) f

  let observe h v =
    let n = Array.length h.bounds in
    let i = ref 0 in
    while !i < n && v > h.bounds.(!i) do
      Stdlib.incr i
    done;
    locked h (fun () ->
        h.counts.(!i) <- h.counts.(!i) + 1;
        h.count <- h.count + 1;
        h.sum <- h.sum +. v)

  let count h = locked h (fun () -> h.count)
  let sum h = locked h (fun () -> h.sum)

  let buckets h =
    locked h (fun () ->
        List.init (Array.length h.counts) (fun i ->
            ((if i < Array.length h.bounds then h.bounds.(i) else infinity), h.counts.(i))))

  (* Consistent (count, sum, buckets) triple under one lock acquisition. *)
  let summary h =
    locked h (fun () ->
        ( h.count,
          h.sum,
          List.init (Array.length h.counts) (fun i ->
              ((if i < Array.length h.bounds then h.bounds.(i) else infinity), h.counts.(i))) ))
end

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

type event = {
  seq : int;
  layer : string;
  event : string;
  attrs : (string * string) list;
}

type t = {
  scope : string;
  metrics : (string * (string * string) list, metric) Hashtbl.t;
  ring : event array;  (** empty array = tracing unavailable *)
  mutable trace_on : bool;
  mutable next_seq : int;
}

let dummy_event = { seq = -1; layer = ""; event = ""; attrs = [] }

let create ?(scope = "obs") ?(trace_capacity = 0) () =
  {
    scope;
    metrics = Hashtbl.create 32;
    ring = Array.make (max 0 trace_capacity) dummy_event;
    trace_on = trace_capacity > 0;
    next_seq = 0;
  }

let scope t = t.scope

(* Label order must not matter for identity. *)
let norm_labels = List.sort compare

let kind_mismatch name =
  invalid_arg (Printf.sprintf "Obs: metric %S already registered with another kind" name)

let counter ?(labels = []) ?(coverage = false) t name =
  let labels = norm_labels labels in
  match Hashtbl.find_opt t.metrics (name, labels) with
  | Some (Counter_m c) -> c
  | Some _ -> kind_mismatch name
  | None ->
    let c =
      {
        Counter.v = Atomic.make 0;
        coverage = (if coverage then Some (Coverage.cell name) else None);
      }
    in
    Hashtbl.add t.metrics (name, labels) (Counter_m c);
    c

let gauge ?(labels = []) t name =
  let labels = norm_labels labels in
  match Hashtbl.find_opt t.metrics (name, labels) with
  | Some (Gauge_m g) -> g
  | Some _ -> kind_mismatch name
  | None ->
    let g = { Gauge.g = Atomic.make 0.0 } in
    Hashtbl.add t.metrics (name, labels) (Gauge_m g);
    g

let default_buckets = [ 64.; 256.; 1024.; 4096.; 16384.; 65536. ]

let histogram ?(labels = []) ?(buckets = default_buckets) t name =
  let labels = norm_labels labels in
  match Hashtbl.find_opt t.metrics (name, labels) with
  | Some (Histogram_m h) -> h
  | Some _ -> kind_mismatch name
  | None ->
    let bounds = Array.of_list buckets in
    Array.sort compare bounds;
    let h =
      {
        Histogram.bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        count = 0;
        sum = 0.0;
        m = Mutex.create ();
      }
    in
    Hashtbl.add t.metrics (name, labels) (Histogram_m h);
    h

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { buckets : (float * int) list; count : int; sum : float }

type sample = {
  name : string;
  labels : (string * string) list;
  value : value;
}

let value_of_metric = function
  | Counter_m c -> Counter_v (Counter.value c)
  | Gauge_m g -> Gauge_v (Gauge.value g)
  | Histogram_m h ->
    let count, sum, buckets = Histogram.summary h in
    Histogram_v { buckets; count; sum }

let snapshot t =
  Hashtbl.fold
    (fun (name, labels) m acc -> { name; labels; value = value_of_metric m } :: acc)
    t.metrics []
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let find ?(labels = []) t name =
  Option.map value_of_metric (Hashtbl.find_opt t.metrics (name, norm_labels labels))

let counter_value ?labels t name =
  match find ?labels t name with Some (Counter_v n) -> n | _ -> 0

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter_m c -> Atomic.set c.Counter.v 0
      | Gauge_m g -> Atomic.set g.Gauge.g 0.0
      | Histogram_m h ->
        Histogram.locked h (fun () ->
            Array.fill h.Histogram.counts 0 (Array.length h.Histogram.counts) 0;
            h.Histogram.count <- 0;
            h.Histogram.sum <- 0.0))
    t.metrics;
  t.next_seq <- 0

(* Merging feeds [into] directly at the record level, on purpose: a merged
   counter must NOT re-feed the global Coverage table (the source counter's
   increments already did at update time — merging is aggregation of what
   happened, not new happenings). *)
let merge_into ~into src =
  Hashtbl.iter
    (fun key m ->
      match m, Hashtbl.find_opt into.metrics key with
      | Counter_m c, None ->
        Hashtbl.add into.metrics key
          (Counter_m { Counter.v = Atomic.make (Counter.value c); coverage = None })
      | Counter_m c, Some (Counter_m d) ->
        ignore (Atomic.fetch_and_add d.Counter.v (Counter.value c))
      | Gauge_m g, None ->
        Hashtbl.add into.metrics key (Gauge_m { Gauge.g = Atomic.make (Gauge.value g) })
      | Gauge_m g, Some (Gauge_m d) ->
        (* adopt: merging registries in seed order leaves the last-merged
           instance's value, exactly what a sequential aggregation sees *)
        Atomic.set d.Gauge.g (Gauge.value g)
      | Histogram_m h, None ->
        (* snapshot [h] under its own lock, then build the copy lock-free:
           never two histogram locks held at once, so merge cannot deadlock *)
        let counts, count, sum =
          Histogram.locked h (fun () ->
              (Array.copy h.Histogram.counts, h.Histogram.count, h.Histogram.sum))
        in
        Hashtbl.add into.metrics key
          (Histogram_m
             {
               Histogram.bounds = Array.copy h.Histogram.bounds;
               counts;
               count;
               sum;
               m = Mutex.create ();
             })
      | Histogram_m h, Some (Histogram_m d) ->
        if h.Histogram.bounds <> d.Histogram.bounds then
          invalid_arg
            (Printf.sprintf "Obs.merge_into: histogram %S bucket bounds differ" (fst key));
        let counts, count, sum =
          Histogram.locked h (fun () ->
              (Array.copy h.Histogram.counts, h.Histogram.count, h.Histogram.sum))
        in
        Histogram.locked d (fun () ->
            Array.iteri (fun i n -> d.Histogram.counts.(i) <- d.Histogram.counts.(i) + n) counts;
            d.Histogram.count <- d.Histogram.count + count;
            d.Histogram.sum <- d.Histogram.sum +. sum)
      | (Counter_m _ | Gauge_m _ | Histogram_m _), Some _ -> kind_mismatch (fst key))
    src.metrics

let pp_labels fmt = function
  | [] -> ()
  | labels ->
    Format.fprintf fmt "{%s}"
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))

let pp_value fmt = function
  | Counter_v n -> Format.pp_print_int fmt n
  | Gauge_v v -> Format.fprintf fmt "%g" v
  | Histogram_v { count; sum; _ } -> Format.fprintf fmt "count=%d sum=%g" count sum

let pp_snapshot fmt t =
  List.iter
    (fun s -> Format.fprintf fmt "%-38s%a %a@." s.name pp_labels s.labels pp_value s.value)
    (snapshot t)

(* {2 JSONL export} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no literal for a non-finite number, so those are quoted
   strings; a finite value takes the fewest significant digits (15, 16
   or 17) that read back to the same float. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_nan v then "\"nan\""
  else if v = infinity then "\"+inf\""
  else if v = neg_infinity then "\"-inf\""
  else
    let exact digits =
      let s = Printf.sprintf "%.*g" digits v in
      if float_of_string s = v then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> ( match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" v)

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "{\"scope\":\"%s\",\"metric\":\"%s\",\"labels\":{%s}"
           (json_escape t.scope) (json_escape s.name)
           (String.concat ","
              (List.map
                 (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
                 s.labels)));
      (match s.value with
      | Counter_v n -> Buffer.add_string buf (Printf.sprintf ",\"type\":\"counter\",\"value\":%d" n)
      | Gauge_v v ->
        Buffer.add_string buf (Printf.sprintf ",\"type\":\"gauge\",\"value\":%s" (json_float v))
      | Histogram_v { buckets; count; sum } ->
        Buffer.add_string buf
          (Printf.sprintf ",\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"buckets\":[%s]" count
             (json_float sum)
             (String.concat ","
                (List.map
                   (fun (le, n) ->
                     Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float le) n)
                   buckets))));
      Buffer.add_string buf "}\n")
    (snapshot t);
  Buffer.contents buf

(* {2 Trace ring} *)

let tracing t = t.trace_on && Array.length t.ring > 0
let set_tracing t on = t.trace_on <- on

let emit t ~layer event attrs =
  if tracing t then begin
    let cap = Array.length t.ring in
    t.ring.(t.next_seq mod cap) <- { seq = t.next_seq; layer; event; attrs };
    t.next_seq <- t.next_seq + 1
  end

let events_emitted t = t.next_seq

let recent ?n t =
  let cap = Array.length t.ring in
  if cap = 0 then []
  else begin
    let available = min t.next_seq cap in
    let wanted = match n with Some n -> min n available | None -> available in
    List.init wanted (fun i ->
        let seq = t.next_seq - wanted + i in
        t.ring.(seq mod cap))
  end

let pp_event fmt e =
  Format.fprintf fmt "#%d %s.%s%s" e.seq e.layer e.event
    (match e.attrs with
    | [] -> ""
    | attrs ->
      " " ^ String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs))
