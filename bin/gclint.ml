(* gclint: the project-convention static-analysis pass.

   Exit codes follow the shared contract with gclint's reading:
     0  clean (no findings)
     1  findings reported
     2  usage error (unknown flag, unknown rule id, bad config)
     3  internal error (the lint engine itself failed)

   `check` lints the tree (or explicit root-relative paths), `rules`
   lists the catalog, `explain <id>` prints one rule's full story. *)

open Cmdliner
module Config = Gc_lint.Config
module Engine = Gc_lint.Engine
module Finding = Gc_lint.Finding
module Rules = Gc_lint.Rules
module Json = Gc_obs.Json

let internal_error = 3

(* Engine failures are bugs in gclint, not in the linted tree: report and
   exit 3 so CI can tell "findings" from "the linter broke". *)
let guard f =
  try f () with
  | Cli_common.Fatal _ as e -> raise e
  | exn ->
      Printf.eprintf "gclint: internal error: %s\n%!" (Printexc.to_string exn);
      internal_error

let load_config ~root ~config_path =
  let load path =
    match Config.load ~known_rules:Rules.ids path with
    | Ok c -> c
    | Error msg -> Cli_common.fail_usage "%s" msg
  in
  match config_path with
  | Some path -> load path
  | None ->
      let path = Filename.concat root "lint.toml" in
      if Sys.file_exists path then load path else Config.empty

(* ----------------------------------------------------------------- check *)

let findings_json findings =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("count", Json.Int (List.length findings));
      ("findings", Json.Array (List.map Finding.to_json findings));
    ]

let check root config_path json paths =
  guard (fun () ->
      (* An absent root would "discover" zero files and report the tree
         clean — make the typo loud instead. *)
      if not (Sys.file_exists root && Sys.is_directory root) then
        Cli_common.fail_usage "no such directory: %s" root;
      let config = load_config ~root ~config_path in
      List.iter
        (fun p ->
          if not (Sys.file_exists (Filename.concat root p)) then
            Cli_common.fail_usage "no such file under %s: %s" root p)
        paths;
      let findings = Engine.check_tree ~config ~root paths in
      if json then print_endline (Json.to_string (findings_json findings))
      else List.iter (fun f -> print_endline (Finding.to_string f)) findings;
      match findings with
      | [] -> Cli_common.ok
      | fs ->
          let errors, warns =
            List.partition (fun f -> f.Finding.severity = Finding.Error) fs
          in
          Printf.eprintf "gclint: %d findings (%d errors, %d warnings)\n%!"
            (List.length fs) (List.length errors) (List.length warns);
          Cli_common.runtime_error)

let root_arg =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Repository root: files are discovered under $(docv)/lib, bin, \
           bench, and test, and explicit paths are resolved against it.")

let config_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Lint configuration (default: $(b,lint.toml) under $(b,--root) \
           when present).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Root-relative files to lint instead of discovering the tree \
           (excluded paths are linted when named explicitly).")

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~exits:Cli_common.exits
       ~doc:
         "Lint the tree against the project conventions (exit 0 clean, 1 \
          findings).")
    Term.(const check $ root_arg $ config_arg $ json_arg $ paths_arg)

(* ----------------------------------------------------------------- rules *)

let rules json =
  guard (fun () ->
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("version", Json.Int 1);
                  ("rules", Json.Array (List.map Rules.to_json Rules.all));
                ]))
      else
        List.iter
          (fun (r : Rules.t) ->
            Printf.printf "%-24s %-5s %s\n" r.Rules.id
              (Finding.severity_to_string r.Rules.severity)
              r.Rules.synopsis)
          Rules.all;
      Cli_common.ok)

let rules_cmd =
  Cmd.v
    (Cmd.info "rules" ~exits:Cli_common.exits
       ~doc:"List every rule: id, severity, synopsis.")
    Term.(const rules $ json_arg)

(* --------------------------------------------------------------- explain *)

let explain id =
  guard (fun () ->
      match Rules.find id with
      | None ->
          Cli_common.fail_usage "unknown rule %S, expected one of: %s" id
            (String.concat ", " Rules.ids)
      | Some r ->
          Printf.printf "%s (%s, %s)\n\n%s\n\nExample violation:\n\n  %s\n\n\
                         Fix: %s\n\n\
                         Suppress one site with a justification comment:\n\n  \
                         (expr [@lint.allow %S])\n\n\
                         or a whole file with [@@@lint.allow %S], or per-path \
                         in lint.toml.\n"
            r.Rules.id
            (Finding.severity_to_string r.Rules.severity)
            r.Rules.scope_doc r.Rules.rationale r.Rules.example r.Rules.fix id
            id;
          Cli_common.ok)

let id_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"RULE" ~doc:"Rule id, as listed by $(b,gclint rules).")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~exits:Cli_common.exits
       ~doc:"Print one rule's rationale, example, fix, and suppression syntax.")
    Term.(const explain $ id_arg)

(* ------------------------------------------------------------------ main *)

let info =
  Cmd.info "gclint" ~version:"%%VERSION%%"
    ~doc:"Project-convention static analysis for the gc_caching tree"
    ~exits:Cli_common.exits

let () = exit (Cli_common.eval (Cmd.group info [ check_cmd; rules_cmd; explain_cmd ]))
