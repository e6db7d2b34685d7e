open Parsetree

let scan_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

(* Never discovered: the fixture corpus exists to trip every rule, and
   test/test_lint.ml names its files explicitly. *)
let fixture_dir = "test/lint_fixtures"

(* -------------------------------------------------------------- idents *)

let rec flatten (li : Longident.t) =
  match li with
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply _ -> []

let strip_stdlib = function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | path -> path

let out_channel_openers =
  [
    "open_text"; "open_bin"; "open_gen";
    "with_open_text"; "with_open_bin"; "with_open_gen";
  ]

let stdout_printers =
  [
    "print_endline"; "print_string"; "print_newline";
    "print_char"; "print_int"; "print_float";
  ]

(* The single ident -> (rule, message) table.  Paths arrive with a
   leading [Stdlib] already stripped. *)
let ident_rule path =
  match path with
  | [ "Domain"; "spawn" ] ->
      Some ("spawn-outside-pool", "raw Domain.spawn outside the supervised runtime")
  | [ "Thread"; "create" ] ->
      Some ("spawn-outside-pool", "raw Thread.create outside the supervised runtime")
  | [ "Unix"; (("sleep" | "sleepf") as f) ] ->
      Some ("bare-sleep", Printf.sprintf "Unix.%s is cut short by signals" f)
  | [ "List"; (("hd" | "nth") as f) ] ->
      Some ("partial-stdlib", Printf.sprintf "partial List.%s raises a bare Failure" f)
  | [ "Option"; "get" ] ->
      Some ("partial-stdlib", "partial Option.get raises a bare Invalid_argument")
  | [ (("open_out" | "open_out_bin" | "open_out_gen") as f) ] ->
      Some
        ( "raw-artifact-write",
          Printf.sprintf "%s creates a file outside the crash-safe Export path" f )
  | [ "Out_channel"; f ] when List.mem f out_channel_openers ->
      Some
        ( "raw-artifact-write",
          Printf.sprintf
            "Out_channel.%s creates a file outside the crash-safe Export path" f )
  | [ "Marshal"; (("from_channel" | "from_string" | "from_bytes") as f) ] ->
      Some ("unsafe-deser", Printf.sprintf "Marshal.%s trusts its input's shape" f)
  | [ "Obj"; "magic" ] -> Some ("unsafe-deser", "Obj.magic defeats the type system")
  | "Random" :: _ :: _ ->
      Some ("nondeterministic-rng", "Stdlib.Random breaks replayable runs")
  | [ f ] when List.mem f stdout_printers ->
      Some ("print-in-lib", Printf.sprintf "%s writes to stdout from library code" f)
  | [ (("Printf" | "Format") as m); "printf" ] ->
      Some
        ( "print-in-lib",
          Printf.sprintf "%s.printf writes to stdout from library code" m )
  | [ "Unix"; "gettimeofday" ] ->
      Some
        ( "wall-clock-timing",
          "Unix.gettimeofday is a wall clock; durations need the monotonic \
           Gc_prof.Clock" )
  | [ "Sys"; "time" ] ->
      Some
        ( "wall-clock-timing",
          "Sys.time measures CPU time; durations need the monotonic \
           Gc_prof.Clock" )
  | [ "failwith" ] ->
      Some ("exit-contract", "failwith bypasses the CLI exit-code contract")
  | [ "exit" ] ->
      Some ("exit-contract", "exit bypasses the Cli_common.eval exit-code contract")
  | _ -> None

(* ------------------------------------------------------- small queries *)

let expr_contains pred e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it x ->
          if !found then ()
          else begin
            if pred x then found := true;
            Ast_iterator.default_iterator.expr it x
          end);
    }
  in
  it.expr it e;
  !found

let reraise_idents =
  [ [ "raise" ]; [ "raise_notrace" ]; [ "Printexc"; "raise_with_backtrace" ] ]

let body_reraises e =
  expr_contains
    (fun x ->
      match x.pexp_desc with
      | Pexp_ident { txt; _ } ->
          List.mem (strip_stdlib (flatten txt)) reraise_idents
      | _ -> false)
    e

(* Catch-all exception patterns: [_], a bare variable, or an or-pattern
   with a catch-all arm. *)
let rec catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_open (_, q)
  | Ppat_exception q ->
      catch_all q
  | Ppat_or (a, b) -> catch_all a || catch_all b
  | _ -> false

let rec pat_is_exception p =
  match p.ppat_desc with
  | Ppat_exception _ -> true
  | Ppat_or (a, b) -> pat_is_exception a || pat_is_exception b
  | Ppat_alias (q, _) | Ppat_constraint (q, _) | Ppat_open (_, q) ->
      pat_is_exception q
  | _ -> false

let mentions_ident name e =
  expr_contains
    (fun x ->
      match x.pexp_desc with
      | Pexp_ident { txt = Lident n; _ } -> n = name
      | _ -> false)
    e

(* The simple-variable names a [let rec] binds; tuple/constraint patterns
   cannot name a function being re-entered from a handler. *)
let rec_bound_names vbs =
  List.filter_map
    (fun vb ->
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> Some txt
      | _ -> None)
    vbs

let pat_contains pred p =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it x ->
          if !found then ()
          else begin
            if pred x then found := true;
            Ast_iterator.default_iterator.pat it x
          end);
    }
  in
  it.pat it p;
  !found

(* Does the pattern name a cancellation-family constructor?  Matching on
   the last path component keeps the check alias-proof (Cancel.Cancelled,
   Gc_exec.Cancel.Cancelled, Pool.Transient, ...). *)
let pat_mentions_rescue p =
  pat_contains
    (fun x ->
      match x.ppat_desc with
      | Ppat_construct ({ txt; _ }, _) -> (
          match List.rev (flatten txt) with
          | ("Cancelled" | "Transient") :: _ -> true
          | _ -> false)
      | _ -> false)
    p

(* --------------------------------------------------------- walk context *)

type ctx = {
  path : string;  (* root-relative, used for scoping and diagnostics *)
  mutable stack : string list list;  (* nested [@lint.allow] scopes *)
  mutable rec_names : string list list;  (* enclosing [let rec] bindings *)
  sanctioned : (int, unit) Hashtbl.t;  (* start offsets of blessed idents *)
  mutable findings : Finding.t list;
}

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol + 1)

(* Engine diagnostics (parse-error, bad-allow) bypass scoping and
   suppression: they mean the lint run itself is compromised. *)
let emit_raw ctx loc rule message =
  let line, col = pos_of loc in
  ctx.findings <-
    {
      Finding.file = ctx.path;
      line;
      col;
      rule;
      severity = Finding.Error;
      message;
      hint = Rules.hint rule;
    }
    :: ctx.findings

let emit ctx loc id message =
  let suppressed = List.exists (List.mem id) ctx.stack in
  if Rules.applies ~id ~file:ctx.path && not suppressed then begin
    let line, col = pos_of loc in
    ctx.findings <-
      {
        Finding.file = ctx.path;
        line;
        col;
        rule = id;
        severity = Rules.severity id;
        message;
        hint = Rules.hint id;
      }
      :: ctx.findings
  end

(* ---------------------------------------------------------- suppression *)

let split_ids s =
  String.split_on_char ' '
    (String.map (function ',' -> ' ' | c -> c) s)
  |> List.filter (fun id -> id <> "")

(* Extract lint.allow ids from an attribute list, reporting malformed
   payloads and unknown rule ids as [bad-allow]. *)
let allow_ids ctx (attrs : attributes) =
  List.concat_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] -> (
            match split_ids s with
            | [] ->
                emit_raw ctx a.attr_name.loc "bad-allow"
                  "empty lint.allow payload";
                []
            | ids ->
                List.iter
                  (fun id ->
                    if not (List.mem id Rules.ids) then
                      emit_raw ctx a.attr_name.loc "bad-allow"
                        (Printf.sprintf
                           "lint.allow names unknown rule %S" id))
                  ids;
                ids)
        | _ ->
            emit_raw ctx a.attr_name.loc "bad-allow"
              "lint.allow expects a quoted rule id";
            [])
    attrs

(* ------------------------------------------------------------ rule body *)

let sanction ctx (e : expression) = Hashtbl.replace ctx.sanctioned e.pexp_loc.loc_start.pos_cnum ()

let mentions_cli_eval e =
  expr_contains
    (fun x ->
      match x.pexp_desc with
      | Pexp_ident { txt; _ } -> flatten txt = [ "Cli_common"; "eval" ]
      | _ -> false)
    e

(* One try/match handler: flag catch-all exception cases that neither
   re-raise themselves nor sit beside a case that names the cancellation
   family.  A sibling that matches [Cancelled]/[Transient] explicitly has
   made a deliberate disposition — whether it re-raises on the spot or
   captures the exception to re-raise after cleanup. *)
let check_handler ctx cases ~exception_cases_only =
  let exc_case c =
    if exception_cases_only then pat_is_exception c.pc_lhs else true
  in
  let rescued =
    List.exists (fun c -> exc_case c && pat_mentions_rescue c.pc_lhs) cases
  in
  if not rescued then
    List.iter
      (fun c ->
        if exc_case c && catch_all c.pc_lhs && not (body_reraises c.pc_rhs)
        then
          emit ctx c.pc_lhs.ppat_loc "swallowed-cancellation"
            "catch-all exception handler can swallow cooperative cancellation")
      cases

(* One try/match handler, again: a catch-all case with no [when] guard
   whose body re-enters an enclosing [let rec] binding is a bare retry
   loop — every failure, retried forever, with no backoff.  A guard is a
   bound the author wrote down; a narrow pattern is a deliberate
   classification; both are left alone. *)
let check_retry ctx cases ~exception_cases_only =
  let names = List.concat ctx.rec_names in
  if names <> [] then
    List.iter
      (fun c ->
        let exc =
          if exception_cases_only then pat_is_exception c.pc_lhs else true
        in
        if
          exc && catch_all c.pc_lhs && c.pc_guard = None
          && List.exists (fun n -> mentions_ident n c.pc_rhs) names
        then
          emit ctx c.pc_lhs.ppat_loc "unbounded-retry"
            "catch-all handler re-enters the recursive binding: an \
             unbounded retry with no backoff")
      cases

(* ------------------------------------------------------- fixed-deadline *)

(* Field or argument labels that carry a time bound in the serving layer. *)
let timing_label l =
  l = "deadline" || l = "budget_ms"
  || (String.length l >= 7
      && String.sub l (String.length l - 7) 7 = "timeout")

(* A literal time bound: a bare int/float constant, possibly wrapped in
   [Some] (budget_ms is an option).  Variables, projections, and computed
   expressions all trace back to configuration and are left alone. *)
let rec literal_timing (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_float _) -> true
  | Pexp_construct ({ txt = Lident "Some"; _ }, Some arg) ->
      literal_timing arg
  | Pexp_constraint (inner, _) -> literal_timing inner
  | _ -> false

let check_fixed_deadline ctx (e : expression) =
  let flag loc what =
    emit ctx loc "fixed-deadline"
      (Printf.sprintf
         "hardcoded time bound in %s: deadlines must derive from \
          Server.config or the propagated budget"
         what)
  in
  match e.pexp_desc with
  | Pexp_record (fields, _) ->
      List.iter
        (fun (({ txt; loc } : Longident.t Location.loc), value) ->
          match List.rev (flatten txt) with
          | label :: _ when timing_label label && literal_timing value ->
              flag loc (Printf.sprintf "record field %s" label)
          | _ -> ())
        fields
  | Pexp_apply (_, args) ->
      List.iter
        (fun (arg_label, value) ->
          match arg_label with
          | Asttypes.Labelled l | Asttypes.Optional l ->
              if timing_label l && literal_timing value then
                flag value.pexp_loc (Printf.sprintf "argument ~%s" l)
          | Asttypes.Nolabel -> ())
        args
  | _ -> ()

(* --------------------------------------------------- hardcoded-endpoint *)

let all_chars_in s pred =
  let ok = ref (s <> "") in
  String.iter (fun c -> if not (pred c) then ok := false) s;
  !ok

(* A string literal that names a concrete network endpoint: a Unix
   socket path (".sock" anywhere after a path-looking prefix) or a
   host:port.  Format strings are skipped — "%s.sock" and "%s:%d" are
   the sanctioned way to *derive* an endpoint from configuration. *)
let endpoint_literal s =
  if String.contains s '%' then false
  else if
    (* Strictly longer than the suffix: a bare ".sock" is a pattern
       (this very matcher), not a place. *)
    String.length s > 5 && Filename.check_suffix s ".sock"
  then true
  else
    match String.rindex_opt s ':' with
    | None -> false
    | Some i ->
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        all_chars_in port (fun c -> c >= '0' && c <= '9')
        && all_chars_in host (fun c ->
               (c >= 'a' && c <= 'z')
               || (c >= 'A' && c <= 'Z')
               || (c >= '0' && c <= '9')
               || c = '.' || c = '-')
        && (String.contains host '.' || host = "localhost")

let check_hardcoded_endpoint ctx (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) when endpoint_literal s ->
      emit ctx e.pexp_loc "hardcoded-endpoint"
        (Printf.sprintf
           "string literal %S pins a concrete endpoint: addresses are \
            deployment configuration"
           s)
  | _ -> ()

let check_expr ctx (e : expression) =
  check_fixed_deadline ctx e;
  check_hardcoded_endpoint ctx e;
  match e.pexp_desc with
  | Pexp_apply
      ( ({ pexp_desc = Pexp_ident { txt = Lident "exit"; _ }; _ } as fn),
        args ) ->
      (* `exit (Cli_common.eval ...)` is the sanctioned entry-point form. *)
      if List.exists (fun (_, arg) -> mentions_cli_eval arg) args then
        sanction ctx fn
  | Pexp_ident { txt; loc } -> (
      match ident_rule (strip_stdlib (flatten txt)) with
      | Some ("exit-contract", _)
        when Hashtbl.mem ctx.sanctioned e.pexp_loc.loc_start.pos_cnum ->
          ()
      | Some (id, message) -> emit ctx loc id message
      | None -> ())
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      emit ctx e.pexp_loc "exit-contract"
        "assert false aborts outside the exit-code contract"
  | Pexp_try (_, cases) ->
      check_handler ctx cases ~exception_cases_only:false;
      check_retry ctx cases ~exception_cases_only:false
  | Pexp_match (_, cases)
    when List.exists (fun c -> pat_is_exception c.pc_lhs) cases ->
      check_handler ctx cases ~exception_cases_only:true;
      check_retry ctx cases ~exception_cases_only:true
  | _ -> ()

(* ------------------------------------------------------------- the walk *)

let iterator ctx =
  let super = Ast_iterator.default_iterator in
  let with_scope ids k =
    ctx.stack <- ids :: ctx.stack;
    k ();
    ctx.stack <- (match ctx.stack with _ :: rest -> rest | [] -> [])
  in
  let with_recs names k =
    ctx.rec_names <- names :: ctx.rec_names;
    k ();
    ctx.rec_names <-
      (match ctx.rec_names with _ :: rest -> rest | [] -> [])
  in
  {
    super with
    expr =
      (fun it e ->
        let recs =
          match e.pexp_desc with
          | Pexp_let (Recursive, vbs, _) -> rec_bound_names vbs
          | _ -> []
        in
        with_recs recs (fun () ->
            with_scope (allow_ids ctx e.pexp_attributes) (fun () ->
                check_expr ctx e;
                super.expr it e)));
    value_binding =
      (fun it vb ->
        (* [default_config] is where deadline/timeout literals live by
           design: it IS the configuration the fixed-deadline rule sends
           authors to. *)
        let sanctioned_defaults =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = "default_config"; _ } -> [ "fixed-deadline" ]
          | _ -> []
        in
        with_scope
          (sanctioned_defaults @ allow_ids ctx vb.pvb_attributes)
          (fun () -> super.value_binding it vb));
    structure_item =
      (fun it si ->
        match si.pstr_desc with
        | Pstr_eval (_, attrs) ->
            with_scope (allow_ids ctx attrs) (fun () ->
                super.structure_item it si)
        | Pstr_value (Recursive, vbs) ->
            with_recs (rec_bound_names vbs) (fun () ->
                super.structure_item it si)
        | _ -> super.structure_item it si);
  }

let parse_error_loc exn =
  match Location.error_of_exn exn with
  | Some (`Ok (err : Location.error)) -> err.main.loc
  | Some `Already_displayed | None -> Location.none

(* The parser's own exception carries the position; anything else (a
   lexer bug, say) still must not crash the lint run, so the catch-all is
   deliberate.  Nothing here executes under a pool token — a lint walk is
   plain single-domain code. *)
let protected_parse parse lexbuf =
  match parse lexbuf with
  | v -> Ok v
  | exception exn -> Error (parse_error_loc exn)
[@@lint.allow "swallowed-cancellation"]

let run_file ctx source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf ctx.path;
  if Filename.check_suffix ctx.path ".mli" then begin
    (* Signatures contain no expressions the rules care about; parse them
       so a syntax error still surfaces, then stop. *)
    match protected_parse Parse.interface lexbuf with
    | Ok (_ : signature) -> ()
    | Error loc -> emit_raw ctx loc "parse-error" "file does not parse"
  end
  else
    match protected_parse Parse.implementation lexbuf with
    | Ok structure ->
        let it = iterator ctx in
        it.structure it structure
    | Error loc -> emit_raw ctx loc "parse-error" "file does not parse"

let check_file ?as_path ~root path =
  let ctx =
    {
      path = (match as_path with Some p -> p | None -> path);
      stack = [];
      rec_names = [];
      sanctioned = Hashtbl.create 8;
      findings = [];
    }
  in
  let source =
    In_channel.with_open_bin (Filename.concat root path) In_channel.input_all
  in
  run_file ctx source;
  List.sort Finding.compare ctx.findings

(* ------------------------------------------------------------ discovery *)

let discover ~root () =
  let acc = ref [] in
  let rec walk rel abs =
    Array.iter
      (fun name ->
        if String.length name > 0 && name.[0] <> '.' && name <> "_build"
        then begin
          let rel = rel ^ "/" ^ name and abs = Filename.concat abs name in
          if Sys.is_directory abs then begin
            if rel <> fixture_dir then walk rel abs
          end
          else if
            Filename.check_suffix name ".ml"
            || Filename.check_suffix name ".mli"
          then acc := rel :: !acc
        end)
      (Sys.readdir abs)
  in
  List.iter
    (fun dir ->
      let abs = Filename.concat root dir in
      if Sys.file_exists abs && Sys.is_directory abs then walk dir abs)
    scan_dirs;
  List.sort String.compare !acc

let check_tree ~root paths =
  let paths = match paths with [] -> discover ~root () | ps -> ps in
  List.sort Finding.compare
    (List.concat_map (fun p -> check_file ~root p) paths)
