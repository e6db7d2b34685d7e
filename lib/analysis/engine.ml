type kind = Exact | Age | Age_unsound

let kind_name = function
  | Exact -> "exact"
  | Age -> "age"
  | Age_unsound -> "age-unsound"

let run kind (cfg : Cache_model.config) ~name program =
  let points =
    match kind with
    | Exact -> Collecting.run_exact cfg program
    | Age -> Abstract.run_age cfg program
    | Age_unsound -> Abstract.run_age ~unsound:true cfg program
  in
  { Report.program = name; engine = kind_name kind; config = cfg; points }

let standard_geometries = [ (1, 1); (1, 2); (1, 4); (2, 2) ]

let standard_configs =
  List.concat_map
    (fun policy ->
      List.map
        (fun (sets, ways) -> { Cache_model.policy; sets; ways })
        standard_geometries)
    [ Cache_model.Lru; Cache_model.Fifo; Cache_model.Plru ]

let grid ~name program =
  List.map (fun cfg -> run Exact cfg ~name program) standard_configs
  @ List.filter_map
      (fun cfg ->
        if cfg.Cache_model.policy = Cache_model.Lru then
          Some (run Age cfg ~name program)
        else None)
      standard_configs
