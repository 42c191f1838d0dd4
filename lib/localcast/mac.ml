type callbacks = {
  on_recv : node:int -> round:int -> Messages.payload -> unit;
  on_ack : node:int -> round:int -> Messages.payload -> unit;
}

let no_callbacks =
  {
    on_recv = (fun ~node:_ ~round:_ _ -> ());
    on_ack = (fun ~node:_ ~round:_ _ -> ());
  }

type t = {
  params : Params.t;
  dual : Dualgraph.Dual.t;
  nodes :
    (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Process.node array;
  env : (Messages.lb_input, Messages.lb_output) Radiosim.Env.t;
  queued : Messages.payload option array;  (** requests awaiting delivery *)
  outstanding : bool array;  (** bcast issued, ack not yet seen *)
  next_uid : int array;
  mutable started : bool;
}

let create ?(callbacks = no_callbacks) ~params ~rng ~dual () =
  let n = Dualgraph.Dual.n dual in
  let queued = Array.make n None in
  let outstanding = Array.make n false in
  let env_inputs ~round:_ ~node =
    match queued.(node) with
    | Some payload ->
        queued.(node) <- None;
        [ Messages.Bcast payload ]
    | None -> []
  in
  let env_notify ~round ~node outs =
    List.iter
      (fun out ->
        match out with
        | Messages.Recv payload -> callbacks.on_recv ~node ~round payload
        | Messages.Ack payload ->
            outstanding.(node) <- false;
            callbacks.on_ack ~node ~round payload
        | Messages.Committed _ -> ())
      outs
  in
  {
    params;
    dual;
    nodes = Lb_alg.network params ~rng ~n;
    env =
      {
        Radiosim.Env.name = "abstract-mac";
        (* [inputs] pops the queued bcast — a side effect. *)
        pure_inputs = false;
        inputs = env_inputs;
        notify = env_notify;
      };
    queued;
    outstanding;
    next_uid = Array.make n 0;
    started = false;
  }

let busy t ~node = t.outstanding.(node) || t.queued.(node) <> None

let request t ~node ~tag =
  if busy t ~node then false
  else begin
    let payload = Messages.payload ~tag ~src:node ~uid:t.next_uid.(node) () in
    t.next_uid.(node) <- t.next_uid.(node) + 1;
    t.queued.(node) <- Some payload;
    t.outstanding.(node) <- true;
    true
  end

let f_prog t = Params.t_prog_rounds t.params
let f_ack t = Params.t_ack_rounds t.params

let run ?observer ?stop ?sink ?metrics ?faults ?revive ?reception ?tick t
    ~scheduler ~rounds =
  if t.started then invalid_arg "Mac.run: already run";
  t.started <- true;
  let env =
    match tick with
    | None -> t.env
    | Some tick ->
        (* Fire once at the top of each round, when the engine polls the
           round's first live node for inputs — before that node's queued
           bcast (if any) is popped, so a request made inside the tick is
           seen by every node's poll of the same round. *)
        let last = ref (-1) in
        {
          t.env with
          Radiosim.Env.inputs =
            (fun ~round ~node ->
              if round > !last then begin
                last := round;
                tick ~round
              end;
              t.env.Radiosim.Env.inputs ~round ~node);
        }
  in
  let observer =
    match sink with
    | None -> observer
    | Some sink ->
        (* Interleave the protocol stream with the engine's structural
           one, as Service.run does. *)
        let monitor = Lb_spec.monitor ?faults ~dual:t.dual ~params:t.params () in
        let (_ : Lb_obs.t) = Lb_obs.attach ?metrics ~sink monitor in
        Some
          (match observer with
          | None -> Lb_spec.observe monitor
          | Some f ->
              fun record ->
                Lb_spec.observe monitor record;
                f record)
  in
  Radiosim.Engine.run ?observer ?stop ?sink ?metrics ?faults ?revive
    ?reception ~dual:t.dual ~scheduler ~nodes:t.nodes ~env ~rounds ()
