module Dual = Dualgraph.Dual
module Trace = Radiosim.Trace

type contention = {
  body_rounds : int;
  silent : int;
  single : int;
  collision : int;
}

let reception_rate c =
  if c.body_rounds = 0 then 0.0
  else float_of_int c.single /. float_of_int c.body_rounds

let contention_profile ~dual ~scheduler ~params ~node trace =
  let body_rounds = ref 0 and silent = ref 0 and single = ref 0 in
  let collision = ref 0 in
  Trace.iter
    (fun record ->
      if not (Lb_alg.is_preamble_round params record.Trace.round) then begin
        incr body_rounds;
        let transmitting =
          Array.map
            (function
              | Radiosim.Process.Transmit _ -> true
              | Radiosim.Process.Listen -> false)
            record.Trace.actions
        in
        let counts =
          Radiosim.Engine.transmitter_counts ~dual ~scheduler
            ~round:record.Trace.round ~transmitting ()
        in
        match counts.(node) with
        | 0 -> incr silent
        | 1 -> incr single
        | _ -> incr collision
      end)
    trace;
  {
    body_rounds = !body_rounds;
    silent = !silent;
    single = !single;
    collision = !collision;
  }

let committed_owners ~params ~n ~phase trace =
  let owners = Array.make n None in
  let phase_len = params.Params.phase_len in
  Trace.iter
    (fun record ->
      if record.Trace.round / phase_len = phase then
        Array.iteri
          (fun v outs ->
            List.iter
              (fun out ->
                match out with
                | Messages.Committed { Messages.owner; _ } ->
                    owners.(v) <- Some owner
                | Messages.Recv _ | Messages.Ack _ -> ())
              outs)
          record.Trace.outputs)
    trace;
  owners

let groups_in_neighborhood ~dual ~owners ~node =
  let seen = Hashtbl.create 8 in
  let absorb v =
    match owners.(v) with
    | Some owner -> Hashtbl.replace seen owner ()
    | None -> ()
  in
  absorb node;
  Dual.iter_all_neighbors dual node absorb;
  Hashtbl.length seen
