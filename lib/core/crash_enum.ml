module S = Harness.S

type stats = {
  states : int;
  truncated : bool;
  violations : int;
  first_violation : string option;
}

let pp_stats fmt s =
  Format.fprintf fmt "%d crash states%s, %d violations" s.states
    (if s.truncated then " (truncated)" else "")
    s.violations

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
  let first a b = match a with Some _ -> a | None -> b in
  (* [n] states evaluated at this crash point, [found] its first violation.
     A speculative hunt task overtaken by a lower hit stops early: its
     verdict is dropped anyway. *)
  let rec go n found states =
    match states () with
    | Seq.Nil -> found
    | Seq.Cons _ when n >= max_states || Par.cancelled () ->
      acc := { !acc with truncated = true };
      found
    | Seq.Cons (state, rest) ->
      let violation = evaluate store model state in
      let s = !acc in
      acc :=
        {
          s with
          states = s.states + 1;
          violations = (s.violations + if Option.is_some violation then 1 else 0);
          first_violation = first s.first_violation violation;
        };
      go (n + 1) (first found violation) rest
  in
  go 0 None (Io_sched.crash_states (S.sched store))
