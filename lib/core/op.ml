type reboot_type = {
  flush_index : bool;
  flush_superblock : bool;
  persist_probability : float;
  split_pages : bool;
}

type t =
  | Get of string
  | Put of string * string
  | Delete of string
  | PutBatch of (string * string) list
  | DeleteBatch of string list
  | List
  | Scan of { lo : string option; hi : string option }
  | IndexFlush
  | SuperblockFlush
  | Compact
  | Reclaim
  | Pump of int
  | FailDiskOnce of int
  | FailDiskPermanent of int
  | HealDisk of int
  | RemoveFromService
  | ReturnToService
  | CleanReboot
  | DirtyReboot of reboot_type

let pp fmt = function
  | Get k -> Format.fprintf fmt "Get(%S)" k
  | Put (k, v) -> Format.fprintf fmt "Put(%S, %d bytes)" k (String.length v)
  | Delete k -> Format.fprintf fmt "Delete(%S)" k
  | PutBatch ops ->
    Format.fprintf fmt "PutBatch(%d ops, %d bytes)" (List.length ops)
      (List.fold_left (fun acc (_, v) -> acc + String.length v) 0 ops)
  | DeleteBatch keys -> Format.fprintf fmt "DeleteBatch(%d keys)" (List.length keys)
  | List -> Format.pp_print_string fmt "List"
  | Scan { lo; hi } ->
    let pp_bound fmt = function
      | None -> Format.pp_print_string fmt "-"
      | Some k -> Format.fprintf fmt "%S" k
    in
    Format.fprintf fmt "Scan[%a, %a]" pp_bound lo pp_bound hi
  | IndexFlush -> Format.pp_print_string fmt "IndexFlush"
  | SuperblockFlush -> Format.pp_print_string fmt "SuperblockFlush"
  | Compact -> Format.pp_print_string fmt "Compact"
  | Reclaim -> Format.pp_print_string fmt "Reclaim"
  | Pump n -> Format.fprintf fmt "Pump(%d)" n
  | FailDiskOnce e -> Format.fprintf fmt "FailDiskOnce(extent %d)" e
  | FailDiskPermanent e -> Format.fprintf fmt "FailDiskPermanent(extent %d)" e
  | HealDisk e -> Format.fprintf fmt "HealDisk(extent %d)" e
  | RemoveFromService -> Format.pp_print_string fmt "RemoveFromService"
  | ReturnToService -> Format.pp_print_string fmt "ReturnToService"
  | CleanReboot -> Format.pp_print_string fmt "CleanReboot"
  | DirtyReboot r ->
    Format.fprintf fmt "DirtyReboot{index=%b; sb=%b; p=%.2f; split=%b}" r.flush_index
      r.flush_superblock r.persist_probability r.split_pages

let to_string t = Format.asprintf "%a" pp t
let equal = Stdlib.( = )

let is_reboot = function
  | CleanReboot | DirtyReboot _ -> true
  | Get _ | Put _ | Delete _ | PutBatch _ | DeleteBatch _ | List | Scan _ | IndexFlush
  | SuperblockFlush | Compact | Reclaim | Pump _ | FailDiskOnce _ | FailDiskPermanent _
  | HealDisk _ | RemoveFromService | ReturnToService -> false

let is_failure = function
  | FailDiskOnce _ | FailDiskPermanent _ | HealDisk _ -> true
  | Get _ | Put _ | Delete _ | PutBatch _ | DeleteBatch _ | List | Scan _ | IndexFlush
  | SuperblockFlush | Compact | Reclaim | Pump _ | RemoveFromService | ReturnToService
  | CleanReboot | DirtyReboot _ -> false

(* Payload bytes carried by the operation (Put value size). *)
let payload_bytes = function
  | Put (_, v) -> String.length v
  | PutBatch ops -> List.fold_left (fun acc (_, v) -> acc + String.length v) 0 ops
  | Get _ | Delete _ | DeleteBatch _ | List | Scan _ | IndexFlush | SuperblockFlush
  | Compact | Reclaim | Pump _ | FailDiskOnce _ | FailDiskPermanent _ | HealDisk _
  | RemoveFromService | ReturnToService | CleanReboot | DirtyReboot _ -> 0

type summary = { ops : int; crashes : int; bytes : int }

let summarize ops =
  List.fold_left
    (fun acc op ->
      {
        ops = acc.ops + 1;
        crashes = (acc.crashes + match op with DirtyReboot _ -> 1 | _ -> 0);
        bytes = acc.bytes + payload_bytes op;
      })
    { ops = 0; crashes = 0; bytes = 0 }
    ops

let pp_summary fmt s =
  Format.fprintf fmt "%d operations, including %d crashes and %d B of data" s.ops s.crashes
    s.bytes
