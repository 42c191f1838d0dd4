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
