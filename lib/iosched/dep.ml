type status = Pending | Durable | Dropped | Failed

type kind =
  | Append of { off : int; data : string }
  | Reset of { epoch : int }

type write = {
  id : int;
  extent : int;
  kind : kind;
  mutable input : t;
  mutable status : status;
}

and t =
  | Trivial
  | Of_write of write
  | And of t * t
  | Of_promise of promise

and promise = { mutable bound : t option; mutable walk : walk }

(* A walk's token: a fresh block per walk, compared physically. *)
and walk = unit ref

let trivial = Trivial

let and_ a b =
  match a, b with
  | Trivial, d | d, Trivial -> d
  | _ -> And (a, b)

let all deps = List.fold_left and_ Trivial deps

(* No walk ever holds this token, so it marks a promise no walk has seen. *)
let unwalked : walk = ref ()

(* Promises can alias (the same cadence promise flows into many deps), so a
   walk marks each promise it enters with its own token and enters it once:
   linear in the graph, and safe on accidental cycles. Tokens are never
   shared, so walks on different domains can at worst repeat work. *)
let eval ~on_write ~on_unbound ~combine ~base t =
  let walk = ref () in
  let rec go t =
    match t with
    | Trivial -> base
    | Of_write w -> on_write w
    | And (a, b) -> combine (fun () -> go a) (fun () -> go b)
    | Of_promise p ->
      if p.walk == walk then base
      else begin
        p.walk <- walk;
        match p.bound with
        | None -> on_unbound p
        | Some d -> go d
      end
  in
  go t

let persistent_under pred t =
  let on_write w =
    match w.status with
    | Durable -> true
    | Pending -> pred w
    | Dropped | Failed -> false
  in
  eval ~on_write ~on_unbound:(fun _ -> false)
    ~combine:(fun a b -> a () && b ())
    ~base:true t

let is_persistent t = persistent_under (fun _ -> false) t

type blocker = Not_durable of write | Unbound of promise

(* [is_persistent]'s walk, stopping at the leaf where it would answer
   false. *)
let first_blocker t =
  let on_write w =
    match w.status with
    | Durable -> None
    | Pending | Dropped | Failed -> Some (Not_durable w)
  in
  eval ~on_write
    ~on_unbound:(fun p -> Some (Unbound p))
    ~combine:(fun a b -> match a () with None -> b () | found -> found)
    ~base:None t

let blocks = function
  | Not_durable w -> (match w.status with Durable -> false | Pending | Dropped | Failed -> true)
  | Unbound p -> Option.is_none p.bound

let has_failed t =
  let on_write w = match w.status with Dropped | Failed -> true | Pending | Durable -> false in
  eval ~on_write ~on_unbound:(fun _ -> false)
    ~combine:(fun a b -> a () || b ())
    ~base:false t

let writes t =
  let acc = ref [] in
  let on_write w =
    acc := w :: !acc;
    true
  in
  let (_ : bool) =
    eval ~on_write ~on_unbound:(fun _ -> true) ~combine:(fun a b -> a () && b ()) ~base:true t
  in
  List.rev !acc

let pp fmt t =
  let ws = writes t in
  Format.fprintf fmt "dep{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       (fun fmt w -> Format.fprintf fmt "w%d" w.id))
    ws

module Promise = struct
  type nonrec promise = promise

  let create () = { bound = None; walk = unwalked }
  let dep p = Of_promise p

  let bind p d =
    match p.bound with
    | Some _ -> invalid_arg "Dep.Promise.bind: already bound"
    | None -> p.bound <- Some d

  let is_bound p = Option.is_some p.bound
end

let make_write ~id ~extent ~kind ~input = { id; extent; kind; input; status = Pending }
let of_write w = Of_write w
(* A settled write's input is never read again ([eval] stops at a write's
   own status; issue and crash selection read only pending writes), so it
   is dropped: a durable write must not pin every write behind it. *)
let set_status w s =
  w.status <- s;
  if s <> Pending then w.input <- Trivial
