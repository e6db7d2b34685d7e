(** Engine dispatch and the standard configuration grid.

    The grid is the fixture surface of [gcanalyze]: every
    policy × geometry the exact engine covers, plus the age engine on its
    LRU slice.  The golden-fixture test asserts every grid cell appears in
    [test/golden/gcanalyze.json], so adding a policy or engine here forces
    the fixture to be regenerated (see doc/ANALYSIS.md). *)

type kind = Exact | Age | Age_unsound

val kind_name : kind -> string
(** ["exact"], ["age"], ["age-unsound"]. *)

val run :
  kind -> Cache_model.config -> name:string -> Program.t -> Report.run
(** Run one engine over one program.  [Age]/[Age_unsound] require an LRU
    config ({!Abstract.run_age}). *)

val standard_configs : Cache_model.config list
(** All three policies crossed with the [(sets, ways)] geometries
    [(1,1); (1,2); (1,4); (2,2)] — associativities 1, 2 and 4 (12
    configs). *)

val grid : name:string -> Program.t -> Report.run list
(** [Exact] on every standard config plus [Age] on the LRU ones
    (16 runs), in deterministic order. *)
