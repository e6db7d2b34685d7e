(** The analysis engine: parse with compiler-libs, walk the Parsetree.

    Each [.ml] is parsed with [Parse.implementation] (interfaces with
    [Parse.interface]) and walked once with an {!Ast_iterator}; every
    enabled rule inspects the nodes it cares about during that single
    pass.  A rule fires only when {!Rules.applies} says the file is in
    scope and no [\[@lint.allow "rule-id"\]] attribute is in effect at
    the site.

    Suppression forms (ids may be space- or comma-separated):
    - [(expr \[@lint.allow "rule-id"\])] — the expression and everything
      inside it;
    - [let f x = ... \[@@lint.allow "rule-id"\]] — one binding.

    Two engine diagnostics exist outside the rule catalog: [parse-error]
    (the file does not parse — the engine never crashes on bad input) and
    [bad-allow] (a malformed [lint.allow] payload or an unknown rule id,
    so a typo cannot silently suppress nothing).  Neither can be
    suppressed. *)

val check_file : ?as_path:string -> root:string -> string -> Finding.t list
(** [check_file ~root path] lints [root/path].  [as_path] substitutes the
    root-relative path used for rule scoping and diagnostics — the
    fixture corpus uses it to lint [test/lint_fixtures/spawn.ml] as if it
    lived at [lib/…].  Findings are sorted. *)

val discover : root:string -> unit -> string list
(** Every [.ml]/[.mli] under [lib/], [bin/], [bench/], [test/], and
    [examples/] below [root] (sorted, root-relative).  Hidden
    directories, [_build], and the fixture corpus [test/lint_fixtures/]
    are skipped. *)

val check_tree : root:string -> string list -> Finding.t list
(** Lint the given root-relative paths ({!discover} when the list is
    empty).  Findings are sorted by file, line, column, rule. *)
