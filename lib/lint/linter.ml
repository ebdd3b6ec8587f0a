(* Static concurrency & determinism analyzer. One parsetree pass per file
   (compiler-libs.common, so the scan understands exactly the syntax the
   build does), then a whole-program aggregation: function summaries, a
   name-resolved call graph, the transitive lock-set fixpoint, the static
   acquisition-class graph, and the metric-name audit.

   The scan is deliberately syntactic — no typing, no cmt files — because
   it must run on any tree state, including one that does not build yet.
   Where syntax is ambiguous the analysis over-approximates (every
   identifier reference is a potential call) and the dynamic cross-check
   in [analyze] bounds the blindness in the other direction: an edge the
   harness observed that the extractor missed fails the lint. *)

open Parsetree
open Asttypes

type finding = {
  rule : string;
  file : string;
  line : int;
  symbol : string;
  message : string;
}

let pp_finding fmt f =
  if f.line > 0 then
    Format.fprintf fmt "%s:%d: [%s] %s: %s" f.file f.line f.rule f.symbol f.message
  else Format.fprintf fmt "%s: [%s] %s: %s" f.file f.rule f.symbol f.message

(* {2 Configuration} *)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let allowlisted prefixes file = List.exists (fun p -> starts_with ~prefix:p file) prefixes

(* Raw Atomic/Mutex/Condition/Domain live only behind the validated
   wrappers; everything else goes through Conc/Par/Obs or a waiver. *)
let primitive_allow = [ "lib/conc/"; "lib/par/"; "lib/smc/"; "lib/obs/" ]
let primitive_modules = [ "Atomic"; "Mutex"; "Condition"; "Domain" ]

(* Hashtbl iteration order is an implementation detail; code whose output
   is validated must sort. The wrapper layers are exempt (their iteration
   feeds sorted snapshots or id-keyed graphs). *)
let hashtbl_allow = primitive_allow

(* Only the bench layer may read wall clocks freely; everything else —
   experiments, benchrec's record stamps — routes through Util.Wallclock
   (one waiver line), the single funnel. *)
let wallclock_allow = [ "bench/" ]

(* A suspension forced by two domains at once raises
   CamlinternalLazy.Undefined in OCaml 5, and any library code may run on
   racing domains: build such values eagerly. *)
let lazy_scope = [ "lib/" ]

let lazy_message =
  "lazy suspension in lib/: two domains forcing it at once raise \
   CamlinternalLazy.Undefined; build the value eagerly"

(* The rwlock implementation file: its model harnesses acquire locks that
   sit beneath the class discipline (the lock under test). *)
let lockgraph_skip = [ "lib/conc/rwlock.ml" ]

(* The registry implementation itself registers nothing by name. *)
let metric_skip = [ "lib/obs/" ]

(* Classes whose same-class nesting follows a documented internal order
   (shard locks: ascending index), so a self-edge is not a deadlock. *)
let ordered_classes = [ "shard" ]

(* Map the syntactic path of a lock expression to its class in the global
   order maint < shard < stack < cache. Unclassified acquisitions are
   findings: the table must grow with the code. *)
let classify_lock path =
  match path with
  | [] -> None
  | _ ->
    let last = List.nth path (List.length path - 1) in
    if List.mem "shards" path || List.mem "locks" path then Some "shard"
    else if last = "stack" || last = "stack_lock" then Some "stack"
    else if last = "maint" || last = "maint_lock" then Some "maint"
    else if last = "run_lock" then Some "lsm_run"
    else if last = "trace_lock" then Some "trace"
    else if last = "lock" then Some "cache"
    else None

(* {2 Per-file scan} *)

type fn_info = {
  f_key : string list;  (* Module path + nested binding names *)
  f_file : string;
  mutable f_acquires : (string list * string * int) list;  (* held, class, line *)
  mutable f_calls : (string list * string list) list;  (* held, callee components *)
}

type scan = {
  s_file : string;
  mutable s_findings : finding list;
  mutable s_fns : fn_info list;
  mutable s_aliases : (string * string list) list;
      (* [module X = A.B] or [module X = F (...)]: X -> target components,
         so calls through the alias resolve to the target's summaries *)
  mutable s_registered : (string * int) list;
  mutable s_refs : (string * int) list;
  mutable s_dynamic_reg : int;
}

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

let rec is_function_expr e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) -> is_function_expr e
  | _ -> false

(* [t.shards.(i).lock] -> ["t"; "shards"; "lock"]: field chains keep their
   labels, array indexing is looked through. *)
let rec flatten_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | Pexp_field (inner, { txt; _ }) ->
    Option.map (fun p -> p @ [ Longident.last txt ]) (flatten_path inner)
  | Pexp_apply (head, (Nolabel, a) :: _) -> (
    match head.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match strip_stdlib (Longident.flatten txt) with
      | [ ("Array" | "String"); "get" ] -> flatten_path a
      | _ -> None)
    | _ -> None)
  | _ -> None

let rec string_list_of e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ({ txt = Longident.Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ }) -> (
    match (hd.pexp_desc, string_list_of tl) with
    | Pexp_constant (Pconst_string (s, _, _)), Some rest -> Some (s :: rest)
    | _ -> None)
  | _ -> None

type acq = {
  a_class : string option;
  a_callback : expression option;
  a_self_edge : bool;  (* with_all_*: acquires every same-class lock, ascending *)
  a_others : expression list;
  a_line : int;
  a_lock_path : string list;
}

let recognize_acquisition head args line =
  match head.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    let comps = Longident.flatten txt in
    let positional = List.filter_map (function Nolabel, a -> Some a | _ -> None) args in
    let labelled = List.filter_map (function Nolabel, _ -> None | _, a -> Some a) args in
    let last_positional () =
      match List.rev positional with [] -> None | cb :: _ -> Some cb
    in
    let all_but_callback cb =
      labelled @ List.filter (fun a -> a != cb) positional
    in
    match List.rev comps with
    | ("with_read" | "with_write") :: ("Rwlock" | "Model") :: _ -> (
      match positional with
      | lock :: _ ->
        let p = Option.value ~default:[] (flatten_path lock) in
        let cb = match positional with [ _; cb ] -> Some cb | _ -> None in
        let others =
          match cb with Some cb -> all_but_callback cb | None -> labelled @ positional
        in
        Some
          {
            a_class = classify_lock p;
            a_callback = cb;
            a_self_edge = false;
            a_others = others;
            a_line = line;
            a_lock_path = p;
          }
      | [] -> None)
    | ("with_key_read" | "with_key_write" | "with_shard_write") :: "Shard_table" :: _ -> (
      match last_positional () with
      | Some cb when List.length positional >= 2 ->
        Some
          {
            a_class = Some "shard";
            a_callback = Some cb;
            a_self_edge = false;
            a_others = all_but_callback cb;
            a_line = line;
            a_lock_path = [ "shard_table" ];
          }
      | _ -> None)
    | ("with_all_read" | "with_all_write") :: "Shard_table" :: _ -> (
      match last_positional () with
      | Some cb when List.length positional >= 2 ->
        Some
          {
            a_class = Some "shard";
            a_callback = Some cb;
            a_self_edge = true;
            a_others = all_but_callback cb;
            a_line = line;
            a_lock_path = [ "shard_table" ];
          }
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The head module path of a module expression: an identifier, or the
   functor being applied. [module Default = Make (struct ... end)] yields
   [Some ["Make"]], so [Default.get] can resolve into [Make]'s bodies. *)
let rec module_head me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (Longident.flatten txt)
  | Pmod_apply (f, _) -> module_head f
  | Pmod_constraint (me, _) -> module_head me
  | _ -> None

let scan_file ~path ~source =
  let sc =
    {
      s_file = path;
      s_findings = [];
      s_fns = [];
      s_aliases = [];
      s_registered = [];
      s_refs = [];
      s_dynamic_reg = 0;
    }
  in
  let add_finding rule line symbol message =
    sc.s_findings <- { rule; file = path; line; symbol; message } :: sc.s_findings
  in
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    Parse.implementation lexbuf
  with
  | exception _ ->
    add_finding "parse" 0 (Filename.basename path) "file does not parse; nothing was checked";
    sc
  | str ->
    let lockgraph_on = not (List.mem path lockgraph_skip) in
    let metric_on = not (allowlisted metric_skip path) in
    let mod_path = ref [ module_name_of_path path ] in
    let fn_names = ref [] in
    let toplevel =
      { f_key = !mod_path @ [ "(file)" ]; f_file = path; f_acquires = []; f_calls = [] }
    in
    sc.s_fns <- [ toplevel ];
    let fn = ref toplevel in
    let held = ref [] in
    let local_lists : (string, string list) Hashtbl.t = Hashtbl.create 8 in
    (* Modules this file binds to a [Hashtbl.Make] instance: their [iter]
       and [fold] walk buckets in the same unordered way. *)
    let hashtbl_modules = ref [] in
    let pending_expected = ref [] in
    let check_banned line comps =
      let c = strip_stdlib comps in
      let sym = String.concat "." c in
      (match c with
      | m :: _ :: _ when List.mem m primitive_modules ->
        if not (allowlisted primitive_allow path) then
          add_finding "primitive" line sym
            "raw concurrency primitive outside lib/{conc,par,smc,obs}; use the validated \
             Conc wrappers or record a waiver"
      | _ -> ());
      (match c with
      | "Lazy" :: _ :: _ when allowlisted lazy_scope path ->
        add_finding "lazy" line sym lazy_message
      | _ -> ());
      (match c with
      | "Random" :: rest
        when match List.rev rest with
             | ("self_init" | "make_self_init") :: _ -> true
             | _ -> false ->
        add_finding "random" line sym
          "nondeterministic seeding; thread an explicit Util.Rng seed instead"
      | _ -> ());
      match List.rev c with
      | "gettimeofday" :: "Unix" :: _
      | "time" :: "Unix" :: _
      | "time" :: "Sys" :: _
      | "gmtime" :: "Unix" :: _
      | "localtime" :: "Unix" :: _ ->
        if not (allowlisted wallclock_allow path) then
          add_finding "wallclock" line sym
            "wall-clock read outside bench//lib/benchrec; route timing through \
             Util.Wallclock"
      | ("iter" | "fold") :: m :: _ when m = "Hashtbl" || List.mem m !hashtbl_modules ->
        if not (allowlisted hashtbl_allow path) then
          add_finding "hashtbl" line sym
            "unordered Hashtbl iteration in a validated-output path; iterate \
             Util.Tbl.sorted_bindings or waive an order-insensitive use"
      | _ -> ()
    in
    let line_of_expr e = e.pexp_loc.Location.loc_start.Lexing.pos_lnum in
    let handle_metrics head args =
      if metric_on then
        match head.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          let comps = strip_stdlib (Longident.flatten txt) in
          let last_string_arg () =
            match List.rev (List.filter_map (function Nolabel, a -> Some a | _ -> None) args) with
            | { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); pexp_loc; _ } :: _ ->
              `Lit (s, pexp_loc.Location.loc_start.Lexing.pos_lnum)
            | _ :: _ -> `Dyn
            | [] -> `None
          in
          match List.rev comps with
          | ("counter" | "gauge" | "histogram") :: "Obs" :: _ | "hit" :: "Coverage" :: _ -> (
            match last_string_arg () with
            | `Lit (s, l) -> sc.s_registered <- (s, l) :: sc.s_registered
            | `Dyn -> sc.s_dynamic_reg <- sc.s_dynamic_reg + 1
            | `None -> ())
          | ("counter_value" | "find") :: "Obs" :: _ | "count" :: "Coverage" :: _ -> (
            match last_string_arg () with
            | `Lit (s, l) -> sc.s_refs <- (s, l) :: sc.s_refs
            | `Dyn | `None -> ())
          | "blind_spots" :: "Coverage" :: _ ->
            List.iter
              (fun (label, a) ->
                if label = Labelled "expected" then
                  match string_list_of a with
                  | Some names ->
                    let l = a.pexp_loc.Location.loc_start.Lexing.pos_lnum in
                    sc.s_refs <- List.map (fun n -> (n, l)) names @ sc.s_refs
                  | None -> (
                    match a.pexp_desc with
                    | Pexp_ident { txt = Longident.Lident name; _ } ->
                      pending_expected :=
                        (name, a.pexp_loc.Location.loc_start.Lexing.pos_lnum)
                        :: !pending_expected
                    | _ -> ()))
              args
          | _ -> ())
        | _ -> ()
    in
    let super = Ast_iterator.default_iterator in
    let expr it e =
      match e.pexp_desc with
      | Pexp_apply (head, args) -> (
        match recognize_acquisition head args (line_of_expr e) with
        | Some acq when lockgraph_on -> (
          match acq.a_class with
          | None ->
            add_finding "lockgraph" acq.a_line
              (String.concat "." acq.a_lock_path)
            "unclassified lock acquisition; extend Linter.classify_lock (or fix the \
               lock's name)";
            super.expr it e
          | Some cls -> (
            !fn.f_acquires <- (!held, cls, acq.a_line) :: !fn.f_acquires;
            if acq.a_self_edge then
              !fn.f_acquires <- (cls :: !held, cls, acq.a_line) :: !fn.f_acquires;
            List.iter (it.expr it) acq.a_others;
            match acq.a_callback with
            | Some cb when is_function_expr cb ->
              held := cls :: !held;
              it.expr it cb;
              held := List.tl !held
            | Some cb ->
              (match cb.pexp_desc with
              | Pexp_ident { txt; _ } ->
                !fn.f_calls <- (cls :: !held, Longident.flatten txt) :: !fn.f_calls
              | _ -> ());
              held := cls :: !held;
              it.expr it cb;
              held := List.tl !held
            | None -> ()))
        | _ ->
          handle_metrics head args;
          super.expr it e)
      | Pexp_lazy _ ->
        if allowlisted lazy_scope path then add_finding "lazy" (line_of_expr e) "lazy" lazy_message;
        super.expr it e
      | Pexp_ident { txt; _ } ->
        check_banned (line_of_expr e) (Longident.flatten txt);
        !fn.f_calls <- (!held, Longident.flatten txt) :: !fn.f_calls;
        super.expr it e
      | _ -> super.expr it e
    in
    let rec pattern_var p =
      match p.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | Ppat_constraint (p, _) -> pattern_var p
      | _ -> None
    in
    let value_binding it vb =
      (match pattern_var vb.pvb_pat with
      | Some name -> (
        match string_list_of vb.pvb_expr with
        | Some l -> Hashtbl.replace local_lists name l
        | None -> ())
      | None -> ());
      match pattern_var vb.pvb_pat with
      | Some name when is_function_expr vb.pvb_expr ->
        let saved_fn = !fn and saved_names = !fn_names and saved_held = !held in
        fn_names := !fn_names @ [ name ];
        let f =
          { f_key = !mod_path @ !fn_names; f_file = path; f_acquires = []; f_calls = [] }
        in
        sc.s_fns <- f :: sc.s_fns;
        fn := f;
        (* A function body runs when called, not where it is defined. *)
        held := [];
        super.value_binding it vb;
        fn := saved_fn;
        fn_names := saved_names;
        held := saved_held
      | _ -> super.value_binding it vb
    in
    let module_binding it mb =
      let name = match mb.pmb_name.txt with Some n -> n | None -> "_" in
      (match module_head mb.pmb_expr with
      | Some target when target <> [ name ] -> sc.s_aliases <- (name, target) :: sc.s_aliases
      | _ -> ());
      (match Option.map strip_stdlib (module_head mb.pmb_expr) with
      | Some [ "Hashtbl"; ("Make" | "MakeSeeded") ] -> hashtbl_modules := name :: !hashtbl_modules
      | _ -> ());
      let saved = !mod_path in
      mod_path := !mod_path @ [ name ];
      super.module_binding it mb;
      mod_path := saved
    in
    let typ it t =
      (match t.ptyp_desc with
      | Ptyp_constr ({ txt; _ }, _) -> (
        match strip_stdlib (Longident.flatten txt) with
        | (m :: _ :: _) as c when List.mem m primitive_modules ->
          if not (allowlisted primitive_allow path) then
            add_finding "primitive" t.ptyp_loc.Location.loc_start.Lexing.pos_lnum
              (String.concat "." c)
              "raw concurrency primitive type outside lib/{conc,par,smc,obs}; use the \
               validated Conc wrappers or record a waiver"
        | _ -> ())
      | _ -> ());
      super.typ it t
    in
    let it = { super with expr; value_binding; module_binding; typ } in
    it.structure it str;
    (* Resolve [blind_spots ~expected:name] against file-local list
       bindings, now that the whole file has been walked. *)
    List.iter
      (fun (name, line) ->
        match Hashtbl.find_opt local_lists name with
        | Some names -> sc.s_refs <- List.map (fun n -> (n, line)) names @ sc.s_refs
        | None -> ())
      !pending_expected;
    sc

(* {2 Whole-program analysis} *)

module SS = Set.Make (String)

module SP = Set.Make (struct
  type t = string * string

  let compare = compare
end)

type report = {
  findings : finding list;
  static_edges : (string * string) list;
  edge_sources : ((string * string) * string) list;
  static_only_edges : (string * string) list;
  files_scanned : int;
  functions : int;
  metrics_registered : int;
  metric_refs : int;
}

let rec is_suffix small big =
  let ls = List.length small and lb = List.length big in
  if ls > lb then false
  else if ls = lb then small = big
  else match big with [] -> false | _ :: rest -> is_suffix small rest

let key_str k = String.concat "." k

(* Longest shared prefix length of two component lists. *)
let rec shared_prefix a b =
  match (a, b) with
  | x :: a', y :: b' when x = y -> 1 + shared_prefix a' b'
  | _ -> 0

let analyze ?(dynamic_edges = []) scans =
  let findings = ref (List.concat_map (fun s -> s.s_findings) scans) in
  let add_global rule symbol message =
    findings := { rule; file = "(global)"; line = 0; symbol; message } :: !findings
  in
  let fns = List.concat_map (fun s -> s.s_fns) scans in
  let by_last : (string, fn_info list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun f ->
      match List.rev f.f_key with
      | last :: _ when last <> "(file)" ->
        Hashtbl.replace by_last last (f :: Option.value ~default:[] (Hashtbl.find_opt by_last last))
      | _ -> ())
    fns;
  (* Resolve a call-site longident to candidate function summaries:
     qualified names by component-suffix match in either direction (the
     site may carry the library wrapper module, the summary the file
     module); bare names within the same file, preferring the candidate
     sharing the longest key prefix with the caller (inner scope wins). *)
  (* module-alias map: alias name -> possible target component lists,
     from every file ([module Default = Make (...)], [module I = Lsm.Index]). *)
  let aliases : (string, string list list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun (name, target) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt aliases name) in
          if not (List.mem target prev) then Hashtbl.replace aliases name (target :: prev))
        s.s_aliases)
    scans;
  (* Expand the leading module of a call path through aliases, a few
     levels deep ([Default.get] -> [Make.get]). *)
  let expand_aliases comps =
    let seen = ref [] in
    let rec go comps depth =
      if List.mem comps !seen || depth > 3 then ()
      else begin
        seen := comps :: !seen;
        match comps with
        | head :: rest when rest <> [] ->
          List.iter
            (fun target -> go (target @ rest) (depth + 1))
            (Option.value ~default:[] (Hashtbl.find_opt aliases head))
        | _ -> ()
      end
    in
    go comps 0;
    !seen
  in
  let resolve_cache : (string, fn_info list) Hashtbl.t = Hashtbl.create 1024 in
  let resolve site comps =
    match List.rev comps with
    | [] -> []
    | last :: _ -> (
      let cache_key = key_str site.f_key ^ "|" ^ key_str comps in
      match Hashtbl.find_opt resolve_cache cache_key with
      | Some r -> r
      | None ->
        let candidates = Option.value ~default:[] (Hashtbl.find_opt by_last last) in
        let r =
          if List.length comps >= 2 then
            let variants = expand_aliases comps in
            List.filter
              (fun f ->
                List.exists
                  (fun v -> is_suffix v f.f_key || is_suffix f.f_key v)
                  variants)
              candidates
          else begin
            (* Single-component name: same-file resolution. The candidate
               must be lexically visible from the call site — its scope
               (key minus the name) a prefix of the caller's key — or a
               recursive local [go] would bind to an unrelated local of
               the same name elsewhere in the file. [site] itself stays a
               candidate so recursion resolves to the right summary. *)
            let same_file = List.filter (fun f -> f.f_file = site.f_file) candidates in
            let scope f = List.rev (List.tl (List.rev f.f_key)) in
            let rec is_prefix p k =
              match (p, k) with
              | [], _ -> true
              | x :: p', y :: k' -> x = y && is_prefix p' k'
              | _ -> false
            in
            let visible = List.filter (fun f -> is_prefix (scope f) site.f_key) same_file in
            let local = if visible <> [] then visible else same_file in
            match local with
            | [] -> []
            | _ ->
              let best =
                List.fold_left
                  (fun acc f -> max acc (shared_prefix site.f_key f.f_key))
                  0 local
              in
              List.filter (fun f -> shared_prefix site.f_key f.f_key = best) local
          end
        in
        Hashtbl.replace resolve_cache cache_key r;
        r)
  in
  (* Transitive lock classes per function: direct acquisitions, then a
     fixpoint over resolved calls. *)
  let trans : (string, SS.t ref) Hashtbl.t = Hashtbl.create 256 in
  let trans_of f =
    match Hashtbl.find_opt trans (key_str f.f_key ^ "@" ^ f.f_file) with
    | Some r -> r
    | None ->
      let r = ref SS.empty in
      Hashtbl.replace trans (key_str f.f_key ^ "@" ^ f.f_file) r;
      r
  in
  List.iter
    (fun f ->
      let r = trans_of f in
      List.iter (fun (_, cls, _) -> r := SS.add cls !r) f.f_acquires)
    fns;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    List.iter
      (fun f ->
        let r = trans_of f in
        List.iter
          (fun (_, comps) ->
            List.iter
              (fun callee ->
                let c = !(trans_of callee) in
                if not (SS.subset c !r) then begin
                  r := SS.union !r c;
                  changed := true
                end)
              (resolve f comps))
          f.f_calls)
      fns
  done;
  (* LINT_DEBUG=1: dump every function whose transitive lock set is
     non-empty, with its resolved calls — the fixpoint made visible. *)
  if Sys.getenv_opt "LINT_DEBUG" <> None then
    List.iter
      (fun f ->
        let t = !(trans_of f) in
        if not (SS.is_empty t) then begin
          Printf.eprintf "fn %s@%s: {%s}\n" (key_str f.f_key) f.f_file
            (String.concat "," (SS.elements t));
          List.iter
            (fun (_, comps) ->
              List.iter
                (fun callee ->
                  if not (SS.is_empty !(trans_of callee)) then
                    Printf.eprintf "    calls %s -> %s@%s {%s}\n" (key_str comps)
                      (key_str callee.f_key) callee.f_file
                      (String.concat "," (SS.elements !(trans_of callee))))
                (resolve f comps))
            f.f_calls
        end)
      fns;
  (* The static acquisition-class graph, with one provenance witness per
     edge (first contributor wins) so cycle findings are debuggable. *)
  let edges = ref SP.empty in
  let sources : (string * string, string) Hashtbl.t = Hashtbl.create 16 in
  let add_edge h c why =
    if not (SP.mem (h, c) !edges) then begin
      edges := SP.add (h, c) !edges;
      Hashtbl.replace sources (h, c) why
    end
  in
  List.iter
    (fun f ->
      List.iter
        (fun (held, cls, line) ->
          let why = Printf.sprintf "%s: %s (line %d)" f.f_file (key_str f.f_key) line in
          List.iter (fun h -> add_edge h cls why) held)
        f.f_acquires;
      List.iter
        (fun (held, comps) ->
          if held <> [] then
            List.iter
              (fun callee ->
                let why =
                  Printf.sprintf "%s: %s calls %s -> %s" f.f_file (key_str f.f_key)
                    (key_str comps) (key_str callee.f_key)
                in
                SS.iter (fun c -> List.iter (fun h -> add_edge h c why) held) !(trans_of callee))
              (resolve f comps))
        f.f_calls)
    fns;
  let static_edges = SP.elements !edges in
  let edge_sources =
    List.map (fun e -> (e, Option.value ~default:"?" (Hashtbl.find_opt sources e))) static_edges
  in
  (* Cycles: self-edges outside the ordered classes, and multi-class
     strongly connected components. *)
  List.iter
    (fun (a, b) ->
      if a = b && not (List.mem a ordered_classes) then
        add_global "lockgraph" (a ^ "->" ^ b)
          "same-class lock nesting without a documented internal order")
    static_edges;
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) static_edges) in
  let succs n = List.filter_map (fun (a, b) -> if a = n && b <> n then Some b else None) static_edges in
  (* Iterative reachability: a cycle exists iff some node reaches itself
     through at least one edge. Small graph, so O(n^2) is fine. *)
  List.iter
    (fun n ->
      let seen = ref SS.empty in
      let rec go m =
        List.iter
          (fun s ->
            if s = n then
              add_global "lockgraph"
                (n ^ "->...->" ^ n)
                "cycle in the static lock-order graph: potential deadlock"
            else if not (SS.mem s !seen) then begin
              seen := SS.add s !seen;
              go s
            end)
          (succs m)
      in
      go n)
    nodes;
  (* Dynamic cross-check: every edge a validate run observed must be in
     the static graph; a miss means the extractor is blind to a real
     path. Static-only edges are reported (not findings): paths no
     harness has exercised. *)
  let dyn = SP.of_list dynamic_edges in
  SP.iter
    (fun (a, b) ->
      if not (SP.mem (a, b) !edges) then
        add_global "lockgraph" (a ^ "->" ^ b)
          "dynamically observed acquisition edge missing from the static graph (the \
           extractor is blind to a real code path)")
    dyn;
  let static_only_edges =
    if SP.is_empty dyn then [] else List.filter (fun e -> not (SP.mem e dyn)) static_edges
  in
  (* Metric audit. *)
  let registered =
    List.fold_left
      (fun acc s -> List.fold_left (fun acc (n, _) -> SS.add n acc) acc s.s_registered)
      SS.empty scans
  in
  let ref_count = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (name, line) ->
          incr ref_count;
          if not (SS.mem name registered) then
            findings :=
              {
                rule = "metric";
                file = s.s_file;
                line;
                symbol = name;
                message =
                  "referenced metric name is registered nowhere in the tree (typo or dead \
                   gauge): a blind spot the coverage report cannot see";
              }
              :: !findings)
        s.s_refs)
    scans;
  let sorted =
    List.sort_uniq
      (fun a b -> compare (a.file, a.line, a.rule, a.symbol) (b.file, b.line, b.rule, b.symbol))
      !findings
  in
  {
    findings = sorted;
    static_edges;
    edge_sources;
    static_only_edges;
    files_scanned = List.length scans;
    functions = List.length fns;
    metrics_registered = SS.cardinal registered;
    metric_refs = !ref_count;
  }

(* {2 Waivers} *)

type waiver = {
  w_rule : string;
  w_file : string;
  w_symbol : string;
  w_reason : string;
}

let split_ws s =
  String.split_on_char ' ' s |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun x -> x <> "")

(* Index of the first occurrence of [sub] in [s], if any. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let parse_waivers source =
  let lines = String.split_on_char '\n' source in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let t = String.trim line in
      if t = "" || t.[0] = '#' then go (n + 1) acc rest
      else
        let head, reason =
          match find_sub t " -- " with
          | Some i ->
            ( String.sub t 0 i,
              String.trim (String.sub t (i + 4) (String.length t - i - 4)) )
          | None -> (t, "")
        in
        if reason = "" then
          Error (Printf.sprintf "lint/waivers:%d: missing ' -- <justification>'" n)
        else
          (match split_ws head with
          | [ w_rule; w_file; w_symbol ] ->
            go (n + 1) ({ w_rule; w_file; w_symbol; w_reason = reason } :: acc) rest
          | _ ->
            Error
              (Printf.sprintf
                 "lint/waivers:%d: expected '<rule> <path> <symbol> -- <justification>'" n))
  in
  go 1 [] lines

let apply_waivers ~waivers findings =
  let used = Hashtbl.create 16 in
  let matches w f = w.w_rule = f.rule && w.w_file = f.file && w.w_symbol = f.symbol in
  let kept =
    List.filter
      (fun f ->
        match List.find_opt (fun w -> matches w f) waivers with
        | Some w ->
          Hashtbl.replace used (w.w_rule, w.w_file, w.w_symbol) ();
          false
        | None -> true)
      findings
  in
  let stale =
    List.filter (fun w -> not (Hashtbl.mem used (w.w_rule, w.w_file, w.w_symbol))) waivers
  in
  (kept, stale)

(* {2 Dynamic graph files} *)

let parse_dynamic_graph source =
  String.split_on_char '\n' source
  |> List.filter_map (fun line ->
         let t = String.trim line in
         if t = "" || t.[0] = '#' then None
         else match split_ws t with [ a; b ] -> Some (a, b) | _ -> None)

(* {2 Tree driving} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let collect_files ~root =
  let acc = ref [] in
  let rec go rel abs =
    if Sys.is_directory abs then begin
      let entries = Sys.readdir abs in
      Array.sort compare entries;
      Array.iter
        (fun name ->
          if name <> "" && name.[0] <> '.' && name <> "_build" && name <> "_opam" then
            go (rel ^ "/" ^ name) (Filename.concat abs name))
        entries
    end
    else if Filename.check_suffix abs ".ml" then acc := (rel, read_file abs) :: !acc
  in
  List.iter
    (fun d ->
      let abs = Filename.concat root d in
      if Sys.file_exists abs && Sys.is_directory abs then go d abs)
    [ "lib"; "bin"; "bench" ];
  List.rev !acc

let run ~root ?waivers_path ?dynamic_graph_path () =
  let files = collect_files ~root in
  let scans = List.map (fun (p, src) -> scan_file ~path:p ~source:src) files in
  let dynamic_edges =
    match dynamic_graph_path with Some p -> parse_dynamic_graph (read_file p) | None -> []
  in
  let report = analyze ~dynamic_edges scans in
  let waivers, waiver_findings =
    let path =
      match waivers_path with
      | Some p -> Some p
      | None ->
        let p = Filename.concat root "lint/waivers" in
        if Sys.file_exists p then Some p else None
    in
    match path with
    | None -> ([], [])
    | Some p -> (
      match parse_waivers (read_file p) with
      | Ok ws -> (ws, [])
      | Error msg ->
        ( [],
          [
            {
              rule = "parse";
              file = "lint/waivers";
              line = 0;
              symbol = "waivers";
              message = msg;
            };
          ] ))
  in
  let kept, stale = apply_waivers ~waivers report.findings in
  let stale_findings =
    List.map
      (fun w ->
        {
          rule = "stale-waiver";
          file = w.w_file;
          line = 0;
          symbol = w.w_symbol;
          message = "waiver matched no finding (" ^ w.w_rule ^ "); delete it: " ^ w.w_reason;
        })
      stale
  in
  let final =
    List.sort
      (fun a b -> compare (a.file, a.line, a.rule, a.symbol) (b.file, b.line, b.rule, b.symbol))
      (kept @ waiver_findings @ stale_findings)
  in
  (final, report, stale)
