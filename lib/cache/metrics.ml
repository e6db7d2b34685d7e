type t = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable spatial_hits : int;
  mutable temporal_hits : int;
  mutable cold_misses : int;
  mutable items_loaded : int;
  mutable evictions : int;
}

let create () =
  {
    accesses = 0;
    hits = 0;
    misses = 0;
    spatial_hits = 0;
    temporal_hits = 0;
    cold_misses = 0;
    items_loaded = 0;
    evictions = 0;
  }

let reset t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.spatial_hits <- 0;
  t.temporal_hits <- 0;
  t.cold_misses <- 0;
  t.items_loaded <- 0;
  t.evictions <- 0

let add acc x =
  acc.accesses <- acc.accesses + x.accesses;
  acc.hits <- acc.hits + x.hits;
  acc.misses <- acc.misses + x.misses;
  acc.spatial_hits <- acc.spatial_hits + x.spatial_hits;
  acc.temporal_hits <- acc.temporal_hits + x.temporal_hits;
  acc.cold_misses <- acc.cold_misses + x.cold_misses;
  acc.items_loaded <- acc.items_loaded + x.items_loaded;
  acc.evictions <- acc.evictions + x.evictions

let ratio num den =
  if den = 0 then 0. else float_of_int num /. float_of_int den

let hit_rate t = ratio t.hits t.accesses
let miss_rate t = ratio t.misses t.accesses
let fault_rate = miss_rate
let copy t = { t with accesses = t.accesses }

let fields t =
  [
    ("accesses", t.accesses);
    ("hits", t.hits);
    ("misses", t.misses);
    ("spatial_hits", t.spatial_hits);
    ("temporal_hits", t.temporal_hits);
    ("cold_misses", t.cold_misses);
    ("items_loaded", t.items_loaded);
    ("evictions", t.evictions);
  ]

let pp fmt t =
  Format.fprintf fmt
    "@[<v>accesses      %d@,hits          %d (%.4f)@,\
     - temporal    %d@,- spatial     %d@,misses        %d (%.4f)@,\
     - cold        %d@,items loaded  %d@,evictions     %d@]"
    t.accesses t.hits (hit_rate t) t.temporal_hits t.spatial_hits t.misses
    (miss_rate t) t.cold_misses t.items_loaded t.evictions

(* Derived from [fields] so the CLI row, the JSON snapshot, and any future
   export can never disagree on keys or order. *)
let to_row t =
  String.concat " "
    (List.concat_map
       (fun (key, v) ->
         let cell = Printf.sprintf "%s=%d" key v in
         (* hit_rate rides along right after the counts it is derived from. *)
         if key = "misses" then
           [ cell; Printf.sprintf "hit_rate=%.4f" (hit_rate t) ]
         else [ cell ])
       (fields t))

let to_json t =
  Gc_obs.Json.Obj
    (List.map (fun (key, v) -> (key, Gc_obs.Json.Int v)) (fields t)
    @ [
        ("hit_rate", Gc_obs.Json.Float (hit_rate t));
        ("miss_rate", Gc_obs.Json.Float (miss_rate t));
      ])
