(* [Store.Shared]'s staging protocol ({!Staging}), explored under Smc with
   the race monitor and lock-order analysis attached. The protocol, its
   shard table and its locks are the shipped code; only the base below
   the stack lock is a stand-in, one [Smc.Cell] holding the key-value
   list. Its plain [Cell.get]/[Cell.set] accesses are deliberate —
   protection must come from the stack lock, and the FastTrack monitor
   verifies that it does. *)

module Base = struct
  type t = (string * string) list Smc.Cell.t
  type error = string
  type reboot = unit

  let get t ~key = Ok (List.assoc_opt key (Smc.Cell.get t))

  let rewrite t f =
    Smc.Cell.set t (f (Smc.Cell.get t));
    Ok ()

  let put_batch t ops =
    rewrite t (fun b -> List.fold_left (fun b (k, v) -> (k, v) :: List.remove_assoc k b) b ops)

  let delete_batch t keys =
    rewrite t (fun b -> List.fold_left (fun b k -> List.remove_assoc k b) b keys)

  let sorted t = List.sort compare (Smc.Cell.get t)
  let list t = Ok (List.map fst (sorted t))
  let scan t ?lo ?hi () = Ok (List.filter (fun (k, _) -> Util.Key_range.mem ~lo ~hi k) (sorted t))

  (* Compaction rewrites the base without changing its contents. *)
  let compact t = rewrite t List.rev
  let reclaim _ = Ok false
  let clean_shutdown _ = Ok ()
  let dirty_reboot _ () = Ok ()
end

module Staged = Staging.Make (Base)

(* A protocol over an empty base; [preload] fills the base before any
   thread is spawned. *)
let setup ?flush_chunk ~shards () = Staged.create ~shards ?flush_chunk (Smc.Cell.make [])
let preload s kvs = Smc.Cell.set (Staged.base s) kvs

(* The [nth] key (from 0) of the form "k<n>" that stages into shard [i]. *)
let key ?(nth = 0) s i =
  let rec go n found =
    let k = Printf.sprintf "k%d" n in
    if Staged.shard_of s k <> i then go (n + 1) found
    else if found = nth then k
    else go (n + 1) (found + 1)
  in
  go 0 0

let get s k =
  match Staged.get s ~key:k with
  | `Staged v | `Base (Ok v) -> v
  | `Base (Error e) -> failwith e

let put s k v = Staged.stage s ~key:k (Some v)

let expect what ok v =
  if not ok then failwith (Printf.sprintf "%s saw %s" what (Option.value v ~default:"(absent)"))

type report = { name : string; property : string; outcome : Smc.outcome }

let pp_report fmt r =
  Format.fprintf fmt "%-16s %s: %a" r.name r.property Smc.pp_outcome r.outcome

(* A harness: its body explored by DFS under [Sanitize.default]. *)
let harness name property body budget =
  {
    name;
    property;
    outcome = Smc.explore ~sanitize:Sanitize.default (Smc.Dfs { max_schedules = budget }) body;
  }

(* Two writers on different shards plus a reader: shard isolation means
   the reader sees exactly its own shard's history. *)
let h_cross_shard =
  harness "shared/cross" "racing writers on distinct shards stay isolated" (fun () ->
      let s = setup ~shards:2 () in
      let a = key s 0 and b = key s 1 in
      preload s [ (a, "old") ];
      Smc.spawn (fun () ->
          let v = get s a in
          expect "shard 0 read" (v = Some "old" || v = Some "new") v;
          let v = get s b in
          expect "shard 1 read" (v = None || v = Some "other") v);
      Smc.spawn (fun () -> put s a "new");
      Smc.spawn (fun () ->
          put s b "other";
          Staged.stage s ~key:b None))

(* Writer, flusher and reader on ONE shard, under the coarse drain (one
   stack hold across it): the get must return the old base value or the
   staged value, never a torn intermediate, and the staged probe + base
   read must be atomic against the flush. *)
let h_same_shard =
  harness "shared/flush" "get is atomic against a concurrent flush of its shard" (fun () ->
      let s = setup ~flush_chunk:0 ~shards:1 () in
      let k = key s 0 in
      preload s [ (k, "v1") ];
      Smc.spawn (fun () -> put s k "v2");
      Smc.spawn (fun () -> ignore (Staged.flush_shard s 0 : (int, string) result));
      Smc.spawn (fun () ->
          let v = get s k in
          expect "same-shard read" (v = Some "v1" || v = Some "v2") v))

(* The two keys a test stages on shard [i], the first sorting first: a
   drain applies its puts in descending key order, so the first is
   applied last, at the end of the drain. *)
let two_on s i =
  let k = key s i and k' = key ~nth:1 s i in
  (min k k', max k k')

(* A scan racing a put and a chunked maintenance flush of a shard with
   two staged entries: the overlay and the base it reads are consistent,
   so the scan sees every key acked before it started, whether the
   drain has begun, is between chunks or is done. The scan is spawned
   last, so DFS first moves it into the drain's last chunk boundary. *)
let h_scan =
  harness "shared/scan" "a scan racing a chunked flush sees every key acked before it" (fun () ->
      let s = setup ~flush_chunk:1 ~shards:2 () in
      let a, c = two_on s 0 and b = key s 1 and d = key ~nth:1 s 1 in
      preload s [ (c, "old") ];
      put s a "x";
      put s c "new";
      put s b "y";
      Smc.spawn (fun () -> put s d "z");
      Smc.spawn (fun () -> ignore (Staged.flush_shard s 0 : (int, string) result));
      Smc.spawn (fun () ->
          match Staged.scan s () with
          | Error e -> failwith e
          | Ok items ->
            List.iter
              (fun (k, v) ->
                let got = List.assoc_opt k items in
                expect ("scan of " ^ k) (got = Some v) got)
              [ (a, "x"); (b, "y"); (c, "new") ];
            let got = List.assoc_opt d items in
            expect ("scan of " ^ d) (got = None || got = Some "z") got))

(* A batch staging across two shards (one shard write lock at a time,
   ascending) races a flusher: the global order shard < stack must leave
   the lock graph acyclic. *)
let h_batch_order =
  harness "shared/order" "batch staging and flush agree on the global lock order" (fun () ->
      let s = setup ~shards:2 () in
      let a = key s 0 and b = key s 1 in
      Smc.spawn (fun () -> Staged.stage_batch s [ (a, Some "x"); (b, Some "y") ]);
      Smc.spawn (fun () -> ignore (Staged.flush s : (int, string) result)))

(* Maintenance flusher vs foreground reads: with [a] -> v2 and a second
   key staged on shard 0 before the race, a maintenance flush of shard 0
   applying one entry per stack hold runs against a reader of shard 0
   (must see the acked v2, staged or flushed, through every chunk
   boundary) and a reader of shard 1 (must keep seeing its own staged
   value — the foreground traffic a narrowed flush lets through). The
   shard-0 reader is spawned last and [a] is applied last, so DFS first
   moves the read into the drain's last chunk boundary. *)
let h_maint_flush =
  harness "shared/maint" "acked values stay visible through a narrowed maintenance flush"
    (fun () ->
      let s = setup ~flush_chunk:1 ~shards:2 () in
      let a, c = two_on s 0 and b = key s 1 in
      preload s [ (a, "v1") ];
      put s a "v2";
      put s c "x";
      put s b "w";
      Smc.spawn (fun () ->
          let v = get s b in
          expect "other-shard read" (v = Some "w") v);
      Smc.spawn (fun () -> ignore (Staged.flush_shard s 0 : (int, string) result));
      Smc.spawn (fun () ->
          let v = get s a in
          expect "maint-racing read of the ack" (v = Some "v2") v))

(* The maintenance domain (maint < shard < stack via the chunked flush,
   maint < stack via compact) races a cross-shard batch and a foreground
   read of the flushed shard (shard < stack): the accumulated lock graph
   over every acquisition path must stay acyclic. *)
let h_maint_order =
  harness "shared/maint-order"
    "maintenance and foreground agree on the order maint < shard < stack"
    (fun () ->
      let s = setup ~flush_chunk:1 ~shards:2 () in
      let a = key s 0 and b = key s 1 and c = key ~nth:1 s 1 in
      preload s [ (c, "z") ];
      Smc.spawn (fun () ->
          ignore (Staged.flush_shard s 1 : (int, string) result);
          ignore (Staged.compact s : (unit, string) result));
      Smc.spawn (fun () -> Staged.stage_batch s [ (a, Some "x"); (b, Some "y") ]);
      Smc.spawn (fun () ->
          let v = get s c in
          expect "foreground read" (v = Some "z") v))

let run ?(budget = 20_000) () =
  List.map
    (fun h -> h budget)
    [ h_cross_shard; h_same_shard; h_scan; h_batch_order; h_maint_flush; h_maint_order ]

let ok reports =
  reports <> []
  && List.for_all
       (fun r ->
         r.outcome.Smc.violation = None
         && r.outcome.Smc.lock_cycles = []
         && r.outcome.Smc.sanitize_accesses > 0)
       reports
