type spec = {
  name : string;
  doc : string;
  make : k:int -> blocks:Gc_trace.Block_map.t -> seed:int -> Policy.t;
}

let rng_of seed = Gc_trace.Rng.create seed

let all =
  [
    {
      name = "lru";
      doc = "item-granularity least-recently-used (Item Cache baseline)";
      make = (fun ~k ~blocks:_ ~seed:_ -> Lru.create ~k);
    };
    {
      name = "fifo";
      doc = "item-granularity first-in-first-out";
      make = (fun ~k ~blocks:_ ~seed:_ -> Fifo.create ~k);
    };
    {
      name = "lfu";
      doc = "item-granularity least-frequently-used";
      make = (fun ~k ~blocks:_ ~seed:_ -> Lfu.create ~k);
    };
    {
      name = "clock";
      doc = "item-granularity CLOCK / second chance";
      make = (fun ~k ~blocks:_ ~seed:_ -> Clock.create ~k);
    };
    {
      name = "plru";
      doc = "tree-PLRU (pseudo-LRU), the hardware bit-tree approximation";
      make = (fun ~k ~blocks:_ ~seed:_ -> Plru.create ~k);
    };
    {
      name = "random";
      doc = "item-granularity random replacement";
      make = (fun ~k ~blocks:_ ~seed -> Random_evict.create ~k ~rng:(rng_of seed));
    };
    {
      name = "fwf";
      doc = "flush-when-full (Albers et al. baseline)";
      make = (fun ~k ~blocks:_ ~seed:_ -> Fwf.create ~k);
    };
    {
      name = "arc";
      doc = "adaptive replacement cache (Megiddo-Modha), item granularity";
      make = (fun ~k ~blocks:_ ~seed:_ -> Arc.create ~k);
    };
    {
      name = "2q";
      doc = "2Q (Johnson-Shasha), item granularity";
      make = (fun ~k ~blocks:_ ~seed:_ -> Two_q.create ~k);
    };
    {
      name = "lru-k";
      doc = "LRU-K with K = 2 (O'Neil et al.), scan resistant";
      make = (fun ~k ~blocks:_ ~seed:_ -> Lru_k.create ~k ~depth:2);
    };
    {
      name = "s3-fifo";
      doc = "S3-FIFO (three queues with lazy promotion)";
      make = (fun ~k ~blocks:_ ~seed:_ -> S3_fifo.create ~k);
    };
    {
      name = "marking";
      doc = "randomized marking, item granularity";
      make = (fun ~k ~blocks:_ ~seed -> Marking.create ~k ~rng:(rng_of seed));
    };
    {
      name = "stride-prefetch";
      doc = "LRU + next-4-line prefetch within the block";
      make =
        (fun ~k ~blocks ~seed:_ -> Stride_prefetch.create ~k ~degree:4 ~blocks);
    };
    {
      name = "block-lru";
      doc = "whole-block loads and evictions, LRU over blocks (Block Cache)";
      make = (fun ~k ~blocks ~seed:_ -> Block_lru.create ~k ~blocks);
    };
    {
      name = "gcm";
      doc = "Granularity-Change Marking (Section 6)";
      make =
        (fun ~k ~blocks ~seed -> Marking.gcm ~k ~blocks ~rng:(rng_of seed) ());
    };
    {
      name = "block-marking";
      doc = "marking that loads AND marks whole blocks (Section 6 strawman)";
      make =
        (fun ~k ~blocks ~seed -> Marking.block ~k ~blocks ~rng:(rng_of seed));
    };
    {
      name = "setassoc-lru";
      doc = "set-associative LRU (8 ways by default)";
      make =
        (fun ~k ~blocks:_ ~seed:_ ->
          let ways = min 8 k in
          Set_assoc.create_lru ~sets:(max 1 (k / ways)) ~ways);
    };
    {
      name = "iblp-adaptive";
      doc = "IBLP with ghost-feedback layer sizing (extension)";
      make = (fun ~k ~blocks ~seed:_ -> Iblp.adaptive ~k ~blocks ());
    };
    {
      name = "iblp";
      doc = "Item-Block Layered Partitioning, equal split (Section 5)";
      make =
        (fun ~k ~blocks ~seed:_ ->
          let i = k / 2 in
          Iblp.create ~i ~b:(k - i) ~blocks ());
    };
    {
      name = "param-a";
      doc = "Theorem-4 family: whole-block load after a distinct accesses";
      make = (fun ~k ~blocks ~seed:_ -> Param_a.create ~k ~a:2 ~blocks);
    };
  ]

let names = List.map (fun s -> s.name) all

let find_spec base =
  match List.find_opt (fun s -> s.name = base) all with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.make: unknown policy %S (known: %s)" base
           (String.concat ", " names))

let parse_kv part =
  match String.index_opt part '=' with
  | Some i ->
      ( String.sub part 0 i,
        String.sub part (i + 1) (String.length part - i - 1) )
  | None -> (part, "")

let int_of name v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.make: bad integer %S for %s" v name)

let make ?repartition name ~k ~blocks ~seed =
  match String.index_opt name ':' with
  | None -> (
      match (name, repartition) with
      | "iblp-adaptive", Some on_repartition ->
          Iblp.adaptive ~on_repartition ~k ~blocks ()
      | _ -> (find_spec name).make ~k ~blocks ~seed)
  | Some i -> (
      let base = String.sub name 0 i in
      let args = String.sub name (i + 1) (String.length name - i - 1) in
      let parts = String.split_on_char ',' args in
      match base with
      | "param-a" -> (
          match parts with
          | [ a ] -> Param_a.create ~k ~a:(int_of "a" a) ~blocks
          | _ -> invalid_arg "Registry.make: param-a takes one parameter")
      | "stride-prefetch" -> (
          match parts with
          | [ d ] ->
              Stride_prefetch.create ~k ~degree:(int_of "degree" d) ~blocks
          | _ ->
              invalid_arg "Registry.make: stride-prefetch takes one parameter")
      | "gcm" -> (
          match parts with
          | [ m ] ->
              Marking.gcm ~load_limit:(int_of "load_limit" m) ~k ~blocks
                ~rng:(rng_of seed) ()
          | _ -> invalid_arg "Registry.make: gcm takes one parameter")
      | "setassoc-lru" -> (
          match parts with
          | [ ways ] ->
              let ways = int_of "ways" ways in
              if ways < 1 || k mod ways <> 0 then
                invalid_arg "Registry.make: setassoc-lru needs ways | k";
              Set_assoc.create_lru ~sets:(k / ways) ~ways
          | _ -> invalid_arg "Registry.make: setassoc-lru takes one parameter")
      | "broken" -> (
          (* Not listed in [all]: only built when explicitly requested, for
             graceful-degradation drills. *)
          match parts with
          | [ p ] ->
              let mode_str, at =
                match String.index_opt p '@' with
                | Some j ->
                    ( String.sub p 0 j,
                      int_of "at"
                        (String.sub p (j + 1) (String.length p - j - 1)) )
                | None -> (p, 0)
              in
              let mode =
                match mode_str with
                | "crash" -> Broken.Crash
                | "violate" -> Broken.Violate
                | "hang" -> Broken.Hang
                | "flaky" -> Broken.Flaky
                | s ->
                    invalid_arg
                      (Printf.sprintf
                         "Registry.make: broken mode %S (want \
                          crash|violate|hang|flaky)"
                         s)
              in
              Broken.create ~k ~mode ~at
          | _ ->
              invalid_arg
                "Registry.make: broken takes one parameter (crash@N | \
                 violate@N | hang@N | flaky@N)")
      | "iblp" ->
          let i_size = ref (-1) and b_size = ref (-1) in
          List.iter
            (fun part ->
              match parse_kv part with
              | "i", v -> i_size := int_of "i" v
              | "b", v -> b_size := int_of "b" v
              | key, _ ->
                  invalid_arg
                    (Printf.sprintf "Registry.make: iblp: unknown key %S" key))
            parts;
          let i_size = if !i_size >= 0 then !i_size else k - !b_size in
          let b_size = if !b_size >= 0 then !b_size else k - i_size in
          Iblp.create ~i:i_size ~b:b_size ~blocks ()
      | _ ->
          invalid_arg
            (Printf.sprintf "Registry.make: policy %S takes no parameters"
               base))
