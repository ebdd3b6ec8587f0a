type state = Empty | Reading | Clean

let state_name = function Empty -> "Empty" | Reading -> "Reading" | Clean -> "Clean"

let pp_state fmt s = Format.pp_print_string fmt (state_name s)

let legal old_s new_s =
  match (old_s, new_s) with
  | Empty, Reading (* miss: claim the entry, fetch outside the lock *)
  | Reading, Clean (* fetch completed *)
  | Reading, Empty (* fetch failed / aborted *)
  | Empty, Clean (* fill without an IO window (write-allocate) *)
  | Clean, Empty (* eviction / invalidation *) ->
      true
  | _ -> false

type violation = { page : int; old_s : state; new_s : state }

let pp_violation fmt v =
  Format.fprintf fmt "illegal cache transition on page %d: %a -> %a" v.page pp_state v.old_s
    pp_state v.new_s

type audit = { mutable checked : int; mutable violations : violation list }

let auditor () = { checked = 0; violations = [] }

let record a ~page ~old_s ~new_s =
  a.checked <- a.checked + 1;
  if not (legal old_s new_s) then a.violations <- { page; old_s; new_s } :: a.violations

let checked a = a.checked
let violations a = List.rev a.violations
