(** The rule catalog.

    Every rule has a stable id (the suppression vocabulary), a severity,
    a one-line synopsis, a rationale grounded in the repo's own
    contracts, a violating example, and a one-line fix hint.  Detection
    logic lives in {!Engine}; this module holds the metadata the [rules]
    and [explain] subcommands (and [doc/LINT.md]) present, and each
    rule's scope ({!applies}). *)

type t = {
  id : string;
  severity : Finding.severity;
  synopsis : string;  (** One line, shown by [gclint rules]. *)
  rationale : string;  (** Why the convention exists, for [explain]. *)
  example : string;  (** A violating snippet. *)
  fix : string;  (** One-line fix hint, echoed in findings. *)
  scope_doc : string;  (** Human-readable scope description. *)
}

val all : t list
(** In catalog order (the order [rules] prints). *)

val ids : string list

val find : string -> t option

val applies : id:string -> file:string -> bool
(** Whether rule [id] is active for the root-relative [file] — the one
    place a rule's scope is decided: path scoping (e.g. [exit-contract]
    is [bin/]-only, [partial-stdlib] skips [test/] and [bench/]) plus the
    per-rule exempt files that implement the convention itself (e.g.
    [lib/obs/export.ml] for [raw-artifact-write]). *)

val hint : string -> string
(** Fix hint for a rule id; [""] for unknown ids (engine diagnostics). *)

val severity : string -> Finding.severity
(** Severity for a rule id; [Error] for unknown ids. *)

val to_json : t -> Gc_obs.Json.t
