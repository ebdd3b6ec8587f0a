(* Offline audit of a recorded wire trace against the chaos campaign's
   per-key model, lifted to interval histories (see audit.mli).

   Pipeline: wire-level well-formedness -> per-key interval histories
   (mutations from puts/deletes/batches, observations from gets and from
   each scan's per-key answers) -> one budgeted Wing-Gong search per key
   -> a sound cross-key snapshot test per completed scan -> ddmin of any
   offending subhistory. *)

type verdict = Valid | Rejected | Truncated | Gave_up

type rejection = {
  r_key : string;
  r_reason : string;
  r_entries : Trace.entry list;
}

type report = {
  entries : int;
  ops : int;
  completed : int;
  pending : int;
  markers : int;
  keys : int;
  max_key_events : int;
  scans : int;
  dropped : int;
  search_nodes : int;
  verdict : verdict;
  rejections : rejection list;
}

let verdict_name = function
  | Valid -> "valid"
  | Rejected -> "REJECTED"
  | Truncated -> "truncated"
  | Gave_up -> "gave-up"

(* {2 Wire-level well-formedness} *)

type orec = {
  o_id : int;
  o_op : Trace.op;
  o_invoked : int;
  mutable o_returned : int;  (* max_int while pending *)
  mutable o_outcome : Trace.outcome option;
  o_inv_entry : Trace.entry;
  mutable o_resp_entry : Trace.entry option;
}

let compatible (op : Trace.op) (outcome : Trace.outcome) =
  match (op, outcome) with
  | (Trace.Put _ | Trace.Delete _), (Trace.Acked | Trace.Failed) -> Ok ()
  | Trace.Get _, (Trace.Got _ | Trace.Unavailable) -> Ok ()
  | Trace.Batch ops, Trace.Batch_done flags ->
    if List.length flags = List.length ops then Ok ()
    else
      Error
        (Printf.sprintf "batch response arity %d does not match request arity %d"
           (List.length flags) (List.length ops))
  | Trace.Batch _, Trace.Failed -> Ok ()
  | Trace.Scan _, (Trace.Scanned _ | Trace.Unavailable) -> Ok ()
  | _, _ -> Error "response kind does not match the invoked operation"

(* One ordered pass: strictly increasing timestamps, every response after
   its (unique) invocation, at most one response per id, response kinds
   matching the operation. The response-before-invocation forgery lands
   here whichever way it is serialized: in emission order it breaks ts
   monotonicity, in ts order the response precedes its invocation. *)
let wire_check entries =
  let rejections = ref [] in
  let reject reason ents =
    rejections := { r_key = ""; r_reason = reason; r_entries = ents } :: !rejections
  in
  let by_id : (int, orec) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let markers = ref 0 in
  let last_ts = ref min_int in
  List.iter
    (fun (e : Trace.entry) ->
      if e.Trace.ts <= !last_ts then
        reject
          (Printf.sprintf "timestamps not strictly increasing (ts %d after ts %d)" e.Trace.ts
             !last_ts)
          [ e ];
      last_ts := e.Trace.ts;
      match e.Trace.ev with
      | Trace.Invoke { id; op; _ } ->
        if Hashtbl.mem by_id id then reject (Printf.sprintf "duplicate invocation id %d" id) [ e ]
        else begin
          let r =
            {
              o_id = id;
              o_op = op;
              o_invoked = e.Trace.ts;
              o_returned = max_int;
              o_outcome = None;
              o_inv_entry = e;
              o_resp_entry = None;
            }
          in
          Hashtbl.replace by_id id r;
          order := r :: !order
        end
      | Trace.Respond { id; outcome } -> (
        match Hashtbl.find_opt by_id id with
        | None -> reject (Printf.sprintf "response for id %d with no invocation" id) [ e ]
        | Some r ->
          if r.o_outcome <> None then reject (Printf.sprintf "second response for id %d" id) [ e ]
          else if e.Trace.ts <= r.o_invoked then
            reject
              (Printf.sprintf "response at ts %d not after its invocation at ts %d (id %d)"
                 e.Trace.ts r.o_invoked id)
              [ r.o_inv_entry; e ]
          else begin
            (match compatible r.o_op outcome with
            | Ok () -> ()
            | Error msg -> reject (Printf.sprintf "id %d: %s" r.o_id msg) [ r.o_inv_entry; e ]);
            r.o_returned <- e.Trace.ts;
            r.o_outcome <- Some outcome;
            r.o_resp_entry <- Some e
          end)
      | Trace.Mark _ -> incr markers)
    entries;
  (List.rev !rejections, List.rev !order, !markers)

(* {2 Per-key interval histories} *)

(* The sequential model is the chaos campaign's per-key entry: an acked
   mutation commits and clears the indeterminate set, a failed (or
   pending) one joins it, an observation must be admissible and leaves
   the state alone. [maybe] is kept sorted so states memoize well. *)
type state = { committed : string option; maybe : string option list }

let init_state = { committed = None; maybe = [] }

type act =
  | Mutate of { value : string option; acked : bool }
  | Observe of string option

(* One per-key event: the engine's interval (returned = max_int for
   pending mutations) plus the trace entries it came from. *)
type kev = { ev : act Lincheck.event; origin : Trace.entry list }

let apply st = function
  | Mutate { value; acked = true } -> Some { committed = value; maybe = [] }
  | Mutate { value; acked = false } ->
    if List.mem value st.maybe then Some st
    else Some { st with maybe = List.sort compare (value :: st.maybe) }
  | Observe v ->
    let admissible =
      (match v with None -> st.committed = None | Some _ -> v = st.committed)
      || List.mem v st.maybe
    in
    if admissible then Some st else None

let in_range ~lo ~hi k =
  (match lo with None -> true | Some l -> String.compare l k <= 0)
  && match hi with None -> true | Some h -> String.compare k h <= 0

(* A completed scan, for the cross-key snapshot test: the interval and
   what it claimed about every judged key. *)
type scan_rec = {
  s_invoked : int;
  s_returned : int;
  s_judged : (string * string option) list;
  s_origin : Trace.entry list;
}

let origin_of r = r.o_inv_entry :: Option.to_list r.o_resp_entry

(* Judge a scan's payload before the model does: a snapshot that is not
   strictly ascending, de-duplicated and inside its own bounds is broken
   wire-level, whatever values it carries. *)
let scan_structure r ~lo ~hi items =
  let rec go = function
    | [] | [ _ ] -> None
    | (a, _) :: (((b, _) :: _) as rest) ->
      if String.compare a b >= 0 then
        Some
          {
            r_key = a;
            r_reason =
              Printf.sprintf "scan items not strictly ascending (%S then %S)" a b;
            r_entries = origin_of r;
          }
      else go rest
  in
  match List.find_opt (fun (k, _) -> not (in_range ~lo ~hi k)) items with
  | Some (k, _) ->
    Some
      {
        r_key = k;
        r_reason = Printf.sprintf "scan yielded %S outside its bounds" k;
        r_entries = origin_of r;
      }
  | None -> go items

(* Fold the operation records into per-key histories plus scan records.
   Batches collapse to one mutation per distinct key (the last op on a
   key wins, as in every batched apply path); a complete scan judges
   every trace-known key in range, a partial page only the keys it
   yielded. *)
let collect ops =
  let per_key : (string, kev list) Hashtbl.t = Hashtbl.create 64 in
  let add k kev =
    Hashtbl.replace per_key k
      (kev :: Option.value (Hashtbl.find_opt per_key k) ~default:[])
  in
  let universe : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let touch k = Hashtbl.replace universe k () in
  List.iter
    (fun r ->
      match r.o_op with
      | Trace.Put { key; _ } | Trace.Delete { key } | Trace.Get { key } -> touch key
      | Trace.Batch ops -> List.iter (fun (k, _) -> touch k) ops
      | Trace.Scan _ -> (
        match r.o_outcome with
        | Some (Trace.Scanned { items; _ }) -> List.iter (fun (k, _) -> touch k) items
        | _ -> ()))
    ops;
  let scans = ref [] in
  let struct_rejections = ref [] in
  List.iter
    (fun r ->
      let interval_act act =
        {
          ev = { Lincheck.invoked = r.o_invoked; returned = r.o_returned; act };
          origin = origin_of r;
        }
      in
      match (r.o_op, r.o_outcome) with
      | Trace.Put { key; value }, outcome ->
        add key (interval_act (Mutate { value = Some value; acked = outcome = Some Trace.Acked }))
      | Trace.Delete { key }, outcome ->
        add key (interval_act (Mutate { value = None; acked = outcome = Some Trace.Acked }))
      | Trace.Get { key }, Some (Trace.Got v) -> add key (interval_act (Observe v))
      | Trace.Get _, _ -> ()
      | Trace.Batch bops, outcome ->
        let flags =
          match outcome with
          | Some (Trace.Batch_done flags) when List.length flags = List.length bops -> flags
          | _ -> List.map (fun _ -> false) bops
        in
        let last : (string, string option * bool) Hashtbl.t = Hashtbl.create 8 in
        List.iter2 (fun (k, v) acked -> Hashtbl.replace last k (v, acked)) bops flags;
        Util.Tbl.iter_sorted
          (fun k (value, acked) -> add k (interval_act (Mutate { value; acked })))
          last
      | Trace.Scan { lo; hi }, Some (Trace.Scanned { items; complete }) ->
        (match scan_structure r ~lo ~hi items with
        | Some rej -> struct_rejections := rej :: !struct_rejections
        | None -> ());
        let judged =
          if complete then
            List.filter_map
              (fun k -> if in_range ~lo ~hi k then Some (k, List.assoc_opt k items) else None)
              (Util.Tbl.sorted_keys ~compare:String.compare universe)
          else List.map (fun (k, v) -> (k, Some v)) items
        in
        List.iter (fun (k, v) -> add k (interval_act (Observe v))) judged;
        scans :=
          {
            s_invoked = r.o_invoked;
            s_returned = r.o_returned;
            s_judged = judged;
            s_origin = origin_of r;
          }
          :: !scans
      | Trace.Scan _, _ -> ())
    ops;
  (per_key, List.rev !scans, List.rev !struct_rejections)

(* {2 The per-key search}

   One {!Lincheck} search per key, against the model above. *)

let search ~budget kevs =
  Lincheck.search ~budget ~init:init_state ~step:apply (List.map (fun k -> k.ev) kevs)

(* {2 Minimization}

   Span-removal ddmin over the per-key history, keeping only subsets the
   search still rejects outright (a gave-up candidate is treated as
   passing, so minimization can only shrink, never mislabel). *)
let minimize ~budget kevs =
  let still_fails kevs =
    kevs <> [] && match search ~budget kevs with Lincheck.Rejected, _ -> true | _ -> false
  in
  Util.Ddmin.minimize ~still_fails kevs

let entries_of_kevs kevs =
  List.concat_map (fun k -> k.origin) kevs
  |> List.sort_uniq (fun (a : Trace.entry) b -> compare a.Trace.ts b.Trace.ts)

(* {2 The cross-key snapshot test}

   For each judged key, bracket when its observed value could have been
   the key's current answer: not before every writer of that value was
   invoked ([lo]), and not after an acked overwrite certainly completed
   with no chance of the value being restored ([hi] — an acked mutation
   to a different value, where every writer of the observed value had
   already returned by the overwrite's invocation). The scan needs one
   point inside its own interval meeting every key's bracket; an empty
   intersection is a snapshot violation no per-key history can explain.
   Both bounds are conservative, so a rejection here is sound. *)
let cross_check per_key s =
  let muts_of k =
    List.filter_map
      (fun { ev; _ } ->
        match ev.Lincheck.act with
        | Mutate { value; acked } -> Some (value, acked, ev.Lincheck.invoked, ev.Lincheck.returned)
        | Observe _ -> None)
      (List.rev (Option.value (Hashtbl.find_opt per_key k) ~default:[]))
  in
  let bracket (k, v) =
    let muts = muts_of k in
    let writer_invokes =
      List.filter_map (fun (value, _, inv, _) -> if value = v then Some inv else None) muts
    in
    let lo =
      match (v, writer_invokes) with
      | None, _ -> min_int
      | Some _, [] -> min_int (* no writer at all: the per-key search rejects it *)
      | Some _, l -> List.fold_left min max_int l
    in
    (* some mutation of [v] could still linearize after a point at or
       past [inv] *)
    let value_may_follow inv =
      List.exists (fun (value, _, _, ret) -> value = v && ret > inv) muts
    in
    let hi =
      List.fold_left
        (fun hi (value, acked, inv, ret) ->
          if acked && value <> v && ret < hi && not (value_may_follow inv) then ret else hi)
        max_int muts
    in
    (k, lo, hi)
  in
  let brackets = List.map bracket s.s_judged in
  let lo_k, lo =
    List.fold_left (fun (bk, b) (k, l, _) -> if l > b then (k, l) else (bk, b)) ("", min_int)
      brackets
  in
  let hi_k, hi =
    List.fold_left (fun (bk, b) (k, _, h) -> if h < b then (k, h) else (bk, b)) ("", max_int)
      brackets
  in
  let low = max s.s_invoked lo and high = min s.s_returned hi in
  if low <= high then None
  else
    let constraining k =
      List.concat_map (fun e -> e.origin)
        (Option.value (Hashtbl.find_opt per_key k) ~default:[])
    in
    Some
      {
        r_key = (if lo_k <> "" then lo_k else hi_k);
        r_reason =
          Printf.sprintf
            "scan snapshot violation: %S requires a linearization point >= %d but %S allows \
             none past %d (scan interval [%d, %d])"
            lo_k lo hi_k hi s.s_invoked s.s_returned;
        r_entries =
          (s.s_origin @ constraining lo_k @ constraining hi_k)
          |> List.sort_uniq (fun (a : Trace.entry) b -> compare a.Trace.ts b.Trace.ts);
      }

(* {2 The audit} *)

let run ?(budget_per_key = Lincheck.default_budget) ?(dropped = 0) entries =
  let wf_rejections, ops, markers = wire_check entries in
  let completed = List.length (List.filter (fun r -> r.o_outcome <> None) ops) in
  let base =
    {
      entries = List.length entries;
      ops = List.length ops;
      completed;
      pending = List.length ops - completed;
      markers;
      keys = 0;
      max_key_events = 0;
      scans = 0;
      dropped;
      search_nodes = 0;
      verdict = Valid;
      rejections = [];
    }
  in
  if wf_rejections <> [] then
    { base with verdict = (if dropped > 0 then Truncated else Rejected); rejections = wf_rejections }
  else begin
    let per_key, scans, struct_rejections = collect ops in
    let nodes_total = ref 0 in
    let gave_up = ref false in
    let longest = ref 0 in
    let rejections = ref (List.rev struct_rejections) in
    Util.Tbl.iter_sorted
      (fun key kevs ->
        let kevs = List.rev kevs in
        longest := max !longest (List.length kevs);
        let outcome, nodes = search ~budget:budget_per_key kevs in
        nodes_total := !nodes_total + nodes;
        match outcome with
        | Lincheck.Linearizable -> ()
        | Lincheck.Gave_up -> gave_up := true
        | Lincheck.Rejected ->
          let minimized = minimize ~budget:budget_per_key kevs in
          rejections :=
            {
              r_key = key;
              r_reason =
                Printf.sprintf
                  "per-key history not linearizable against the committed/indeterminate model \
                   (%d event(s), minimized to %d)"
                  (List.length kevs) (List.length minimized);
              r_entries = entries_of_kevs minimized;
            }
            :: !rejections)
      per_key;
    List.iter
      (fun s ->
        match cross_check per_key s with
        | Some rej -> rejections := rej :: !rejections
        | None -> ())
      scans;
    let rejections = List.rev !rejections in
    let verdict =
      if dropped > 0 then Truncated
      else if rejections <> [] then Rejected
      else if !gave_up then Gave_up
      else Valid
    in
    {
      base with
      keys = Hashtbl.length per_key;
      max_key_events = !longest;
      scans = List.length scans;
      search_nodes = !nodes_total;
      verdict;
      rejections;
    }
  end

let audit ?budget_per_key recorder =
  run ?budget_per_key ~dropped:(Trace.Recorder.dropped recorder)
    (Trace.Recorder.entries recorder)

let ok r = r.verdict = Valid

let pp_report fmt r =
  Format.fprintf fmt
    "%s: %d entries (%d ops: %d completed, %d pending; %d markers), %d keys (longest history \
     %d events), %d scans, %d dropped, %d search nodes"
    (verdict_name r.verdict) r.entries r.ops r.completed r.pending r.markers r.keys
    r.max_key_events r.scans r.dropped r.search_nodes;
  List.iter
    (fun rej ->
      if rej.r_key = "" then Format.fprintf fmt "@.  wire: %s" rej.r_reason
      else Format.fprintf fmt "@.  key %s: %s" rej.r_key rej.r_reason;
      List.iter (fun e -> Format.fprintf fmt "@.    %a" Trace.pp_entry e) rej.r_entries)
    r.rejections
