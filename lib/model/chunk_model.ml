type key = Full of Chunk.Locator.t | Position of int * int

type t = {
  live : (key, string) Hashtbl.t;
  seen : (Chunk.Locator.t, unit) Hashtbl.t;
  mutable next_slot : int;
}

type key_clash = { locator : Chunk.Locator.t; existing_payload : string }

let create () = { live = Hashtbl.create 64; seen = Hashtbl.create 64; next_slot = 0 }

let key_of locator =
  (* Fault #15: the model conflates locators that differ only in epoch,
     re-using map slots across extent resets. *)
  if Faults.enabled Faults.F15_model_locator_reuse then begin
    Faults.record_fired Faults.F15_model_locator_reuse;
    Position (locator.Chunk.Locator.extent, locator.Chunk.Locator.off)
  end
  else Full locator

let track t ~locator ~payload =
  match Hashtbl.find_opt t.seen locator with
  | Some () -> (
    match Hashtbl.find_opt t.live (key_of locator) with
    | Some existing_payload -> Error { locator; existing_payload }
    | None -> Error { locator; existing_payload = "" })
  | None ->
    Hashtbl.replace t.seen locator ();
    Hashtbl.replace t.live (key_of locator) payload;
    Ok ()

let expected t ~locator = Hashtbl.find_opt t.live (key_of locator)

let mock_put t ~payload =
  let slot =
    (* Fault #15: the reference model re-uses chunk locators. *)
    if Faults.enabled Faults.F15_model_locator_reuse then begin
      Faults.record_fired Faults.F15_model_locator_reuse;
      t.next_slot mod 8
    end
    else t.next_slot
  in
  t.next_slot <- t.next_slot + 1;
  let locator = { Chunk.Locator.extent = slot / 64; epoch = 0; off = slot mod 64; frame_len = String.length payload } in
  Hashtbl.replace t.live (Full locator) payload;
  locator

let drop t ~locator = Hashtbl.remove t.live (key_of locator)
let size t = Hashtbl.length t.live
