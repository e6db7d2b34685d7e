module type STRATEGY = sig
  type t
  type config

  val name : string
  val create : config -> t
  val mem : t -> int -> bool
  val size : t -> int
  val hit : t -> int -> bool
  val insert : t -> int -> unit
  val pop_victim : t -> int
end

module Make (S : STRATEGY) = struct
  module P = struct
    type t = { k : int; state : S.t }

    let name = S.name
    let k t = t.k
    let mem t item = S.mem t.state item
    let occupancy t = S.size t.state

    let access t item =
      if S.hit t.state item then Policy.Hit { evicted = [] }
      else begin
        let evicted = ref [] in
        while S.size t.state >= t.k do
          evicted := S.pop_victim t.state :: !evicted
        done;
        S.insert t.state item;
        Policy.Miss { loaded = [ item ]; evicted = !evicted }
      end
  end

  let create ~k config =
    if k < 1 then invalid_arg (S.name ^ ": k must be >= 1");
    Policy.Instance ((module P), { P.k; state = S.create config })
end
