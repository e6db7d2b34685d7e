(* gcbounds: evaluate the paper's bound formulas and print table/figure
   series as TSV (pipe into a plotter of your choice).

   Examples:
     gcbounds table1 --h 10000 -B 64
     gcbounds figure3 --k 1280000 -B 64 --steps 60
     gcbounds figure6 --k 1280000 -B 64 --h0 10000
     gcbounds table2 --p 2 --size 100000 -B 64
     gcbounds point --k 1280000 --h 10000 -B 64

   Exit codes: 0 ok, 1 runtime failure, 2 usage error. *)

open Cmdliner

let k_arg =
  Arg.(value & opt float 1_280_000. & info [ "k" ] ~doc:"Online cache size.")

let h_arg =
  Arg.(value & opt float 10_000. & info [ "h" ] ~doc:"Offline cache size.")

let b_arg =
  Arg.(value & opt float 64. & info [ "block-size"; "B" ] ~doc:"Block size.")

let steps_arg =
  Arg.(value & opt int 48 & info [ "steps" ] ~doc:"Points per series.")

(* --------------------------------------------------------------- table 1 *)

let table1 h block_size =
  Format.printf
    "Table 1: salient bounds (h = %g, B = %g); 'paper' is the asymptotic \
     entry, 'exact' our numeric solution@.@."
    h block_size;
  let families =
    [ (Gc_bounds.Table1.St, "Sleator-Tarjan");
      (Gc_bounds.Table1.Gc_lower, "GC lower bound");
      (Gc_bounds.Table1.Gc_upper, "GC upper bound (IBLP)") ]
  in
  List.iter
    (fun row ->
      Format.printf "%s@." row.Gc_bounds.Table1.setting;
      List.iter
        (fun (family, name) ->
          let p = row.Gc_bounds.Table1.point family in
          Format.printf "  %-22s paper: %-34s exact: k = %.3f h -> %.3fx@."
            name
            (row.Gc_bounds.Table1.paper_form family)
            p.Gc_bounds.Table1.augmentation p.Gc_bounds.Table1.ratio)
        families)
    (Gc_bounds.Table1.rows ~h ~block_size);
  Cli_common.ok

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~exits:Cli_common.exits ~doc:"Reproduce Table 1")
    Term.(const table1 $ h_arg $ b_arg)

(* --------------------------------------------------------------- table 2 *)

let table2 p size block_size =
  Format.printf
    "Table 2: fault-rate bounds at i = b = h = %g, B = %g, f(n) = n^(1/%g)@.@."
    size block_size p;
  Format.printf "%-22s %-14s %-14s %-14s@." "g(n)" "lower bound"
    "item layer UB" "block layer UB";
  List.iter
    (fun r ->
      Format.printf "%-22s %-14s %-14s %-14s@." r.Gc_bounds.Table2.g_desc
        r.Gc_bounds.Table2.lower_asym r.Gc_bounds.Table2.item_asym
        r.Gc_bounds.Table2.block_asym;
      Format.printf "%-22s %-14.3e %-14.3e %-14.3e@." "" r.Gc_bounds.Table2.lower
        r.Gc_bounds.Table2.item_ub r.Gc_bounds.Table2.block_ub)
    (Gc_bounds.Table2.rows ~p ~block_size ~size);
  Cli_common.ok

let p_arg = Arg.(value & opt float 2. & info [ "p" ] ~doc:"Locality exponent.")

let size_arg =
  Arg.(value & opt float 100_000. & info [ "size" ] ~doc:"Layer size i = b.")

let table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~exits:Cli_common.exits ~doc:"Reproduce Table 2")
    Term.(const table2 $ p_arg $ size_arg $ b_arg)

(* -------------------------------------------------------------- figure 3 *)

let figure3 k block_size steps =
  Format.printf "# Figure 3: k = %g, B = %g@." k block_size;
  Format.printf "h\tsleator_tarjan\tgc_lower\tiblp_upper\titem_cache\tblock_cache@.";
  let hs = Gc_bounds.Figures.default_hs ~k ~steps in
  List.iter
    (fun (pt : Gc_bounds.Figures.figure3_point) ->
      Format.printf "%.0f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f@."
        pt.Gc_bounds.Figures.h pt.Gc_bounds.Figures.sleator_tarjan
        pt.Gc_bounds.Figures.gc_lower pt.Gc_bounds.Figures.iblp_upper
        pt.Gc_bounds.Figures.item_cache_lower
        pt.Gc_bounds.Figures.block_cache_lower)
    (Gc_bounds.Figures.figure3 ~k ~block_size ~hs);
  Cli_common.ok

let figure3_cmd =
  Cmd.v
    (Cmd.info "figure3" ~exits:Cli_common.exits
       ~doc:"Reproduce Figure 3 as TSV")
    Term.(const figure3 $ k_arg $ b_arg $ steps_arg)

(* -------------------------------------------------------------- figure 6 *)

let figure6 k block_size h0 steps =
  let i0 = Gc_bounds.Partitioning.optimal_i ~k ~h:h0 ~block_size in
  Format.printf "# Figure 6: k = %g, B = %g; fixed split optimized for h0 = %g (i = %.0f)@."
    k block_size h0 i0;
  Format.printf "h\toptimal_split\tfixed_split@.";
  let hs = Gc_bounds.Figures.default_hs ~k ~steps in
  List.iter
    (fun (pt : Gc_bounds.Figures.figure6_point) ->
      let fixed =
        match pt.Gc_bounds.Figures.fixed_splits with
        | (_, v) :: _ -> v
        | [] -> Float.nan
      in
      Format.printf "%.0f\t%.4f\t%.4f@." pt.Gc_bounds.Figures.h
        pt.Gc_bounds.Figures.optimal_split fixed)
    (Gc_bounds.Figures.figure6 ~k ~block_size ~fixed_is:[ i0 ] ~hs);
  Cli_common.ok

let h0_arg =
  Arg.(value & opt float 10_000. & info [ "h0" ] ~doc:"Design point for the fixed split.")

let figure6_cmd =
  Cmd.v
    (Cmd.info "figure6" ~exits:Cli_common.exits
       ~doc:"Reproduce Figure 6 as TSV")
    Term.(const figure6 $ k_arg $ b_arg $ h0_arg $ steps_arg)

(* ----------------------------------------------------------------- point *)

let point k h block_size =
  let open Gc_bounds in
  Format.printf "k = %g, h = %g, B = %g@." k h block_size;
  Format.printf "sleator-tarjan lower: %.4f@."
    (Sleator_tarjan.competitive_ratio ~k ~h);
  Format.printf "thm2 item-cache lower: %.4f@."
    (Lower_bounds.item_cache ~k ~h ~block_size);
  Format.printf "thm3 block-cache lower: %.4f@."
    (Lower_bounds.block_cache ~k ~h ~block_size);
  Format.printf "thm4 general lower (a = %.0f): %.4f@."
    (Lower_bounds.best_a ~k ~h ~block_size)
    (Lower_bounds.best ~k ~h ~block_size);
  let i = Partitioning.optimal_i ~k ~h ~block_size in
  Format.printf "IBLP optimal split: i = %.1f, b = %.1f@." i (k -. i);
  Format.printf "thm7 IBLP upper: %.4f@."
    (Partitioning.optimal_ratio ~k ~h ~block_size);
  Cli_common.ok

let point_cmd =
  Cmd.v
    (Cmd.info "point" ~exits:Cli_common.exits
       ~doc:"Evaluate all bounds at one (k, h, B)")
    Term.(const point $ k_arg $ h_arg $ b_arg)

let () =
  let info =
    Cmd.info "gcbounds" ~doc:"GC-caching bound calculator"
      ~exits:Cli_common.exits
  in
  exit
    (Cli_common.eval
       (Cmd.group info [ table1_cmd; table2_cmd; figure3_cmd; figure6_cmd; point_cmd ]))
