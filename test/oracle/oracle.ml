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
