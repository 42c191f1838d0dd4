module Dual = Dualgraph.Dual
module Env = Radiosim.Env
module Process = Radiosim.Process
module Scheduler = Radiosim.Scheduler
module Trace = Radiosim.Trace

(* For every listener, scan its topology neighborhood and apply the
   collision rule, querying the scheduler per (listener, incident edge).
   O(n·Δ') per round and allocating; kept verbatim as the executable
   reference semantics. *)
let run_reference ?observer ?stop ~dual ~scheduler ~nodes ~env ~rounds () =
  let n = Dual.n dual in
  if Array.length nodes <> n then
    invalid_arg "Oracle.run_reference: node array size differs from vertex count";
  if rounds < 0 then invalid_arg "Oracle.run_reference: negative round count";
  let executed = ref 0 in
  let continue = ref true in
  let round = ref 0 in
  while !continue && !round < rounds do
    let t = !round in
    let inputs = Array.init n (fun v -> env.Env.inputs ~round:t ~node:v) in
    let actions =
      Array.mapi (fun v node -> node.Process.decide ~round:t inputs.(v)) nodes
    in
    let delivered =
      Array.init n (fun u ->
          match actions.(u) with
          | Process.Transmit _ -> None
          | Process.Listen ->
              let heard = ref None in
              let collided = ref false in
              let consider v =
                match actions.(v) with
                | Process.Listen -> ()
                | Process.Transmit m -> (
                    match !heard with
                    | None -> heard := Some m
                    | Some _ -> collided := true)
              in
              Dual.iter_reliable_neighbors dual u consider;
              Dual.iter_unreliable_incident dual u (fun v edge ->
                  if Scheduler.active scheduler ~round:t ~edge then consider v);
              if !collided then None else !heard)
    in
    let outputs =
      Array.init n (fun v -> nodes.(v).Process.absorb ~round:t delivered.(v))
    in
    Array.iteri
      (fun v outs -> if outs <> [] then env.Env.notify ~round:t ~node:v outs)
      outputs;
    let record = { Trace.round = t; inputs; actions; delivered; outputs } in
    (match observer with Some f -> f record | None -> ());
    (match stop with Some p when p record -> continue := false | _ -> ());
    incr executed;
    incr round
  done;
  !executed

module Flood = struct
  module Mac = Localcast.Mac

  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    relays : int;
    rounds_executed : int;
  }

  let run ~params ~rng ~dual ~scheduler ~source ~max_rounds () =
    let flood_tag = 1 in
    let n = Dualgraph.Dual.n dual in
    if source < 0 || source >= n then invalid_arg "Flood.run: source out of range";
    let covered = Array.make n false in
    let relayed = Array.make n false in
    let covered_count = ref 0 in
    let completion_round = ref None in
    let relays = ref 0 in
    let mac = ref None in
    let cover ~round node =
      if not covered.(node) then begin
        covered.(node) <- true;
        incr covered_count;
        if !covered_count = n && !completion_round = None then
          completion_round := Some round
      end
    in
    let relay ~round:_ ~node =
      if not relayed.(node) then begin
        relayed.(node) <- true;
        match !mac with
        | Some mac ->
            if Mac.request mac ~node ~tag:flood_tag then incr relays
            else relayed.(node) <- false (* busy: retry on a later reception *)
        | None -> ()
      end
    in
    let callbacks =
      {
        Mac.on_recv =
          (fun ~node ~round payload ->
            if payload.Localcast.Messages.tag = flood_tag then begin
              cover ~round node;
              relay ~round ~node
            end);
        on_ack = (fun ~node:_ ~round:_ _ -> ());
      }
    in
    let m = Mac.create ~callbacks ~params ~rng ~dual () in
    mac := Some m;
    cover ~round:0 source;
    relayed.(source) <- true;
    if Mac.request m ~node:source ~tag:flood_tag then incr relays;
    let stop _record = !covered_count = n in
    let rounds_executed = Mac.run ~stop m ~scheduler ~rounds:max_rounds in
    {
      covered;
      covered_count = !covered_count;
      completion_round = !completion_round;
      relays = !relays;
      rounds_executed;
    }
end

module Flood_decay = struct
  module M = Localcast.Messages
  module P = Radiosim.Process

  type result = {
    covered : bool array;
    covered_count : int;
    completion_round : int option;
    rounds_executed : int;
  }

  let run ~rng ~dual ~scheduler ~source ~relay_epochs ~max_rounds () =
    let n = Dual.n dual in
    if source < 0 || source >= n then invalid_arg "Flood_decay.run: source out of range";
    if relay_epochs < 1 then invalid_arg "Flood_decay.run: relay_epochs must be >= 1";
    let levels = Baseline.Decay.levels_for ~delta':(Dual.delta' dual) in
    let relay_rounds = relay_epochs * levels in
    let covered = Array.make n false in
    let covered_count = ref 0 in
    let completion_round = ref None in
    let cover ~round v =
      if not covered.(v) then begin
        covered.(v) <- true;
        incr covered_count;
        if !covered_count = n && !completion_round = None then
          completion_round := Some round
      end
    in
    let node v =
      let node_rng = Prng.Rng.split rng in
      (* relay window: [start, start + relay_rounds), set on first coverage *)
      let relay_start = ref (if v = source then Some 0 else None) in
      let decide ~round _inputs =
        match !relay_start with
        | Some start when round >= start && round < start + relay_rounds ->
            let level = (round - start) mod levels in
            let p = 1.0 /. float_of_int (1 lsl (level + 1)) in
            if Prng.Rng.bernoulli node_rng p then
              P.Transmit (M.Data (M.payload ~src:v ~uid:0 ~tag:1 ()))
            else P.Listen
        | _ -> P.Listen
      in
      let absorb ~round received =
        (match received with
        | Some (M.Data _) ->
            cover ~round v;
            if !relay_start = None then relay_start := Some (round + 1)
        | Some (M.Seed_msg _) | None -> ());
        []
      in
      { P.decide; absorb }
    in
    cover ~round:0 source;
    let nodes = Array.init n node in
    let stop _ = !covered_count = n in
    let rounds_executed =
      Radiosim.Engine.run ~stop ~dual ~scheduler ~nodes
        ~env:(Radiosim.Env.null ~name:"flood-decay" ())
        ~rounds:max_rounds ()
    in
    {
      covered;
      covered_count = !covered_count;
      completion_round = !completion_round;
      rounds_executed;
    }
end

module Rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let mix_gamma z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
    let z = Int64.logxor z (Int64.shift_right_logical z 33) in
    Int64.logor z 1L

  let create seed = { state = seed }

  let next t =
    let s = Int64.add t.state golden_gamma in
    t.state <- s;
    mix s

  let split t =
    let s1 = next t in
    let s2 = next t in
    { state = Int64.logxor (mix s1) (mix_gamma s2) }

  let copy t = { state = t.state }

  let bits64 = next

  let bool t = Int64.logand (next t) 1L = 1L

  let bits t k =
    assert (k >= 0 && k <= 62);
    if k = 0 then 0
    else Int64.to_int (Int64.shift_right_logical (next t) (64 - k))

  let int t n =
    assert (n > 0);
    if n = 1 then 0
    else begin
      let k =
        let rec width k = if k >= 62 || 1 lsl k >= n then k else width (k + 1) in
        width 1
      in
      let rec draw () =
        let v = bits t k in
        if v < n then v else draw ()
      in
      draw ()
    end

  let int_in_range t ~min ~max =
    assert (min <= max);
    min + int t (max - min + 1)

  let float t x =
    let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    x *. (v /. 9007199254740992.0)

  let bernoulli t p =
    if p <= 0.0 then false
    else if p >= 1.0 then true
    else float t 1.0 < p

  let geometric_trial t b =
    assert (b >= 0);
    let rec go remaining =
      if remaining = 0 then true
      else if bool t then false
      else go (remaining - 1)
    in
    go b

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let scheduler_hash ~seed ~round ~edge =
    mix
      (Int64.add
         (Int64.mul (Int64.of_int round) 0x100000001B3L)
         (Int64.of_int ((edge * 2654435761) + seed)))

  let sparse_round_stream ~seed ~round =
    create
      (mix
         (Int64.add
            (Int64.mul (Int64.of_int round) 0x100000001B3L)
            (Int64.of_int seed)))

  let node_rng ~seed ~node ~round =
    let open Int64 in
    let key =
      add
        (add
           (mul (of_int seed) 0x9E3779B97F4A7C15L)
           (mul (of_int (node + 1)) 0xC2B2AE3D27D4EB4FL))
        (mul (of_int round) 0x165667B19E3779F9L)
    in
    create (mix key)

  let reviver_rng ~seed ~node ~round =
    create
      (mix
         (Int64.add
            (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
            (Int64.add
               (Int64.mul (Int64.of_int (node + 1)) 0xC2B2AE3D27D4EB4FL)
               (Int64.mul (Int64.of_int (round + 1)) 0x165667B19E3779F9L))))

  let churn_hash ~seed ~node =
    mix
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.mul (Int64.of_int (node + 1)) 0xC2B2AE3D27D4EB4FL))

  let workload_mix z =
    let z = (z lxor (z lsr 31)) * 0x2545F4914F6CDD1D in
    let z = (z lxor (z lsr 29)) * 0x3C6EF372FE94F82B in
    (z lxor (z lsr 32)) land max_int
end
