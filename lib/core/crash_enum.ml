module S = Harness.S

type stats = { states : int; truncated : bool }

(* Recover a fresh store on a clone of the disk holding [state] and check
   every tracked key against the survivors the model allows when exactly
   the state's whole writes persisted. *)
let evaluate store model state =
  let clone = Disk.copy (S.disk store) in
  Io_sched.write_state (S.sched store) state clone;
  let recovered = S.of_disk (S.config store) clone in
  match S.recover recovered with
  | Error e -> Some (Format.asprintf "recovery failed in crash state: %a" S.pp_error e)
  | Ok () ->
    let pred = Io_sched.persisted state in
    List.find_map
      (fun key ->
        let allowed = Model.Crash_model.allowed_after_crash_under ~pred model ~key in
        match S.get recovered ~key with
        | Ok observed when List.mem observed allowed -> None
        | Ok observed ->
          Some
            (Format.asprintf "crash state: key %S observed %s, not among %d allowed survivors" key
               (match observed with
               | None -> "<absent>"
               | Some v -> Printf.sprintf "%d bytes" (String.length v))
               (List.length allowed))
        | Error e -> Some (Format.asprintf "crash state: key %S unreadable: %a" key S.pp_error e))
      (Model.Crash_model.tracked_keys model)

let hook ~max_states ~acc store model =
  (* [n] states evaluated at this crash point; the first violation ends
     it, since it fails the harness run. A speculative hunt task overtaken
     by a lower hit stops early: its verdict is dropped anyway. *)
  let rec go n states =
    match states () with
    | Seq.Nil -> None
    | Seq.Cons _ when n >= max_states || Par.cancelled () ->
      acc := { !acc with truncated = true };
      None
    | Seq.Cons (state, rest) -> (
      acc := { !acc with states = !acc.states + 1 };
      match evaluate store model state with
      | Some _ as violation -> violation
      | None -> go (n + 1) rest)
  in
  go 0 (Io_sched.crash_states (S.sched store))
