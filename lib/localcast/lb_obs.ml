module Trace = Radiosim.Trace
module E = Obs.Event
module M = Obs.Metrics

type t = { mutable snapshots_rev : M.snapshot list }

let attach ?metrics ~sink monitor =
  let t = { snapshots_rev = [] } in
  (match metrics with
  | None -> Lb_spec.tap monitor sink ignore
  | Some registry ->
      let counter = M.counter registry and histogram = M.histogram registry in
      let transmits = counter "engine.transmits" in
      let deliveries = counter "engine.deliveries" in
      let collisions = counter "engine.collisions" in
      let rounds = M.gauge registry "engine.rounds" in
      (* Registration order is the snapshots' key order. *)
      let owners = histogram "seed.owners_per_neighborhood" in
      let transmitters_per_round = histogram "lb.transmitters_per_round" in
      let progress_latency = histogram "lb.progress_latency" in
      let ack_latency = histogram "lb.ack_latency" in
      let seed_commits = counter "lb.seed_commits" in
      let recvs = counter "lb.recvs" in
      let acks = counter "lb.acks" in
      let bcasts = counter "lb.bcasts" in
      let committed = ref false in
      Obs.Sink.on_event sink (function
        | E.Transmit _ -> M.incr transmits
        | E.Deliver _ -> M.incr deliveries
        | E.Collision _ -> M.incr collisions
        | E.Round_end { round; _ } -> M.set rounds (float_of_int (round + 1))
        | E.Bcast _ -> M.incr bcasts
        | E.Recv _ -> M.incr recvs
        | E.Ack { node; latency; _ } ->
            M.incr acks;
            M.observe ~node ack_latency (float_of_int latency)
        | E.Seed_commit _ ->
            M.incr seed_commits;
            committed := true
        | E.Progress { node; latency; _ } ->
            M.observe ~node progress_latency (float_of_int latency)
        | E.Round_start _ | E.Phase_start _ | E.Mark _ | E.Crash _ | E.Restart _ -> ());
      let phase_len = (Lb_spec.params monitor).Params.phase_len in
      let core = Lb_spec.audit monitor in
      (* Per record, after its events: the decided transmitters, and at a
         phase's last round the δ occupancy and the snapshot — before the
         engine's Round_end, as the phase's own rounds count. *)
      Lb_spec.tap monitor sink (fun record ->
          let actions = record.Trace.actions in
          let transmitting = ref 0 in
          for v = 0 to Array.length actions - 1 do
            match actions.(v) with
            | Radiosim.Process.Transmit _ -> incr transmitting
            | Radiosim.Process.Listen -> ()
          done;
          M.observe transmitters_per_round (float_of_int !transmitting);
          let round = record.Trace.round in
          if (round + 1) mod phase_len = 0 then begin
            if !committed then
              for u = 0 to Array.length actions - 1 do
                M.observe ~node:u owners (float_of_int (Obs.Audit.seed_owners core u))
              done;
            t.snapshots_rev <-
              M.snapshot ~label:(Printf.sprintf "phase-%d" (round / phase_len)) registry
              :: t.snapshots_rev
          end));
  t

let snapshots t = List.rev t.snapshots_rev

let auditor = Lb_spec.auditor

let wire ~faults ~sink ~metrics ~observer ~dual ~params =
  let monitor = Lb_spec.monitor ?faults ~dual ~params () in
  let obs = Option.map (fun sink -> attach ?metrics ~sink monitor) sink in
  let observe =
    match observer with
    | None -> Lb_spec.observe monitor
    | Some f ->
        fun record ->
          Lb_spec.observe monitor record;
          f record
  in
  (monitor, obs, observe)
