type contradiction = {
  program : string;
  engine : string;
  config : Cache_model.config;
  point : int;
  item : int;
  verdict : Report.verdict;
  hits : int;
  misses : int;
}

type summary = {
  programs : int;
  runs : int;
  points_checked : int;
  always_claims : int;
  contradictions : contradiction list;
}

let dynamic_policy (cfg : Cache_model.config) =
  let make_way_policy ~k =
    match cfg.policy with
    | Cache_model.Lru -> Gc_cache.Lru.create ~k
    | Cache_model.Fifo -> Gc_cache.Fifo.create ~k
    | Cache_model.Plru -> Gc_cache.Plru.create ~k
  in
  Gc_cache.Set_assoc.create ~sets:cfg.sets ~ways:cfg.ways ~make_way_policy

let observe (cfg : Cache_model.config) (p : Program.t) =
  let counts = Array.make p.Program.points (0, 0) in
  List.iter
    (fun path ->
      let sim =
        Gc_cache.Simulator.create (dynamic_policy cfg) p.Program.blocks
      in
      Array.iter
        (fun (point, item) ->
          let hits, misses = counts.(point) in
          match Gc_cache.Simulator.access sim item with
          | Gc_cache.Policy.Hit _ -> counts.(point) <- (hits + 1, misses)
          | Gc_cache.Policy.Miss _ -> counts.(point) <- (hits, misses + 1))
        path)
    (Program.executions p);
  counts

let check_run ~observed (run : Report.run) =
  Array.to_list run.Report.points
  |> List.filter_map (fun (pt : Report.point) ->
         let hits, misses = observed.(pt.Report.point) in
         let contradicted =
           match pt.Report.verdict with
           | Report.Always_hit -> misses > 0
           | Report.Always_miss -> hits > 0
           | Report.Unknown -> false
         in
         if contradicted then
           Some
             {
               program = run.Report.program;
               engine = run.Report.engine;
               config = run.Report.config;
               point = pt.Report.point;
               item = pt.Report.item;
               verdict = pt.Report.verdict;
               hits;
               misses;
             }
         else None)

let check ?(unsound = false) programs configs =
  let runs = ref 0 and points_checked = ref 0 and always = ref 0 in
  let contradictions = ref [] in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun (cfg : Cache_model.config) ->
          let observed = observe cfg program in
          let engines =
            if cfg.policy = Cache_model.Lru then
              [ Engine.Exact; (if unsound then Engine.Age_unsound else Engine.Age) ]
            else [ Engine.Exact ]
          in
          List.iter
            (fun kind ->
              let run = Engine.run kind cfg ~name program in
              incr runs;
              points_checked := !points_checked + Array.length run.Report.points;
              Array.iter
                (fun (pt : Report.point) ->
                  if pt.Report.verdict <> Report.Unknown then incr always)
                run.Report.points;
              contradictions := !contradictions @ check_run ~observed run)
            engines)
        configs)
    programs;
  {
    programs = List.length programs;
    runs = !runs;
    points_checked = !points_checked;
    always_claims = !always;
    contradictions = !contradictions;
  }

let contradiction_to_json c =
  let open Gc_obs.Json in
  Obj
    [
      ("program", String c.program);
      ("engine", String c.engine);
      ("policy", String (Cache_model.policy_name c.config.policy));
      ("sets", Int c.config.sets);
      ("ways", Int c.config.ways);
      ("point", Int c.point);
      ("item", Int c.item);
      ("verdict", String (Report.verdict_name c.verdict));
      ("hits", Int c.hits);
      ("misses", Int c.misses);
    ]

let summary_to_json s =
  let open Gc_obs.Json in
  Obj
    [
      ("schema", String "gcanalyze-check/v1");
      ("programs", Int s.programs);
      ("runs", Int s.runs);
      ("points_checked", Int s.points_checked);
      ("always_claims", Int s.always_claims);
      ("contradictions", Array (List.map contradiction_to_json s.contradictions));
    ]

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>%d programs, %d runs, %d points (%d always-* claims), %d \
     contradictions"
    s.programs s.runs s.points_checked s.always_claims
    (List.length s.contradictions);
  List.iter
    (fun c ->
      Format.fprintf fmt
        "@,CONTRADICTION %s/%s %s sets=%d ways=%d @@%d item=%d claimed %s, \
         observed %d hits / %d misses"
        c.program c.engine
        (Cache_model.policy_name c.config.policy)
        c.config.sets c.config.ways c.point c.item
        (Report.verdict_name c.verdict)
        c.hits c.misses)
    s.contradictions;
  Format.fprintf fmt "@]"
