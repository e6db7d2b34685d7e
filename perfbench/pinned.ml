(* Default-seed pins.  A change to Generators, Workload_suite or a
   policy that alters the benchmark's inputs or results fails the
   default-seed run here instead of silently changing the traffic. *)

let default_seed = 1

(* Trace.digest of the replay trace file. *)
let replay_digest = "fnv1a64:c496dd452f8b707b"

(* Trace.digest of each distinct serving request trace, by
   workload/n/seed; the two mixes draw their request seeds from the
   default seed. *)
let serve_digests =
  [
    ("sequential/n=256/seed=46657", "fnv1a64:bcbaead53ed0159a");
    ("uniform/n=256/seed=46657", "fnv1a64:563dd8d55499a02a");
    ("zipf/n=256/seed=46657", "fnv1a64:adc50f038af79b7b");
    ("zipf-blocks/n=256/seed=46657", "fnv1a64:f8ebd0002efba7eb");
    ("spatial-mix/n=256/seed=46657", "fnv1a64:fed070048496a44d");
    ("pointer-chase/n=256/seed=46657", "fnv1a64:1adfa0413e695ccf");
    ("phases/n=256/seed=46657", "fnv1a64:db4b7c8b4978a31f");
    ("markov/n=256/seed=46657", "fnv1a64:8d97fde99612cff7");
    ("sequential/n=256/seed=652711", "fnv1a64:bcbaead53ed0159a");
    ("uniform/n=256/seed=652711", "fnv1a64:8a90193be843656f");
    ("zipf/n=256/seed=652711", "fnv1a64:49ea905a45c2ce06");
    ("zipf-blocks/n=256/seed=652711", "fnv1a64:8c4adafa409a3baf");
    ("spatial-mix/n=256/seed=652711", "fnv1a64:0885ebf0c9b51a6f");
    ("pointer-chase/n=256/seed=652711", "fnv1a64:b53f7a24ef308858");
    ("phases/n=256/seed=652711", "fnv1a64:c8e3b2ca9ec65d19");
    ("markov/n=256/seed=652711", "fnv1a64:bcbaead53ed0159a");
    ("sequential/n=256/seed=726878", "fnv1a64:bcbaead53ed0159a");
    ("uniform/n=256/seed=726878", "fnv1a64:d80fc00c8e4dda47");
    ("zipf/n=256/seed=726878", "fnv1a64:aab81a90cf2f3fee");
    ("zipf-blocks/n=256/seed=726878", "fnv1a64:618c8df5072ed61a");
    ("spatial-mix/n=256/seed=726878", "fnv1a64:b48085c6263ab054");
    ("pointer-chase/n=256/seed=726878", "fnv1a64:b1d00097a8403301");
    ("phases/n=256/seed=726878", "fnv1a64:ab8202e7db2f5204");
    ("markov/n=256/seed=726878", "fnv1a64:bcbaead53ed0159a");
    ("sequential/n=256/seed=392331", "fnv1a64:bcbaead53ed0159a");
    ("uniform/n=256/seed=392331", "fnv1a64:272f9a0eb4d3d315");
    ("zipf/n=256/seed=392331", "fnv1a64:b471375522a44e5c");
    ("zipf-blocks/n=256/seed=392331", "fnv1a64:276100635d401de2");
    ("spatial-mix/n=256/seed=392331", "fnv1a64:d99bf20d2c30713a");
    ("pointer-chase/n=256/seed=392331", "fnv1a64:9f0559e522d86a3a");
    ("phases/n=256/seed=392331", "fnv1a64:62f7f87dce94ee41");
    ("markov/n=256/seed=392331", "fnv1a64:cf8de57608f37296");
    ("zipf/n=20000/seed=46657", "fnv1a64:04bf47b2a489a30f");
    ("zipf/n=5000/seed=46657", "fnv1a64:4d01c9c7a6f8c06c");
    ("zipf/n=20000/seed=652711", "fnv1a64:15f35a3525743722");
    ("zipf/n=5000/seed=652711", "fnv1a64:cbb765bb1a548378");
  ]

(* All eight Metrics counters (accesses, hits, misses, spatial_hits,
   temporal_hits, cold_misses, items_loaded, evictions) of each replay
   policy at k = 4096. *)
let replay_fixture =
  [
    ("lru", [ 200000; 97407; 102593; 0; 97407; 31473; 102593; 98497 ]);
    ("fifo", [ 200000; 95297; 104703; 0; 95297; 31473; 104703; 100607 ]);
    ("clock", [ 200000; 94838; 105162; 0; 94838; 31473; 105162; 101066 ]);
    ("fwf", [ 200000; 75719; 124281; 0; 75719; 31473; 124281; 122880 ]);
    ("lfu", [ 200000; 73324; 126676; 0; 73324; 31473; 126676; 122580 ]);
    ("arc", [ 200000; 97202; 102798; 0; 97202; 31473; 102798; 98702 ]);
    ("s3-fifo", [ 200000; 94311; 105689; 0; 94311; 31473; 105689; 101593 ]);
    ("setassoc-lru", [ 200000; 96959; 103041; 0; 96959; 31473; 103041; 98945 ]);
    ("plru", [ 200000; 94308; 105692; 0; 94308; 31473; 105692; 101596 ]);
    ("block-lru", [ 200000; 147705; 52295; 83889; 63816; 10693; 836720; 832624 ]);
    ("gcm", [ 200000; 143318; 56682; 61048; 82270; 11571; 643876; 639780 ]);
    ("iblp", [ 200000; 129190; 70810; 72667; 56523; 11348; 902830; 899011 ]);
    ("param-a:1", [ 200000; 146738; 53262; 86907; 59831; 10690; 819430; 815334 ]);
  ]
