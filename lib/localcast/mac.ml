type callbacks = Lb_env.callbacks = {
  on_recv : node:int -> round:int -> Messages.payload -> unit;
  on_ack : node:int -> round:int -> Messages.payload -> unit;
}

let no_callbacks = Lb_env.no_callbacks

type t = {
  params : Params.t;
  dual : Dualgraph.Dual.t;
  nodes :
    (Messages.msg, Messages.lb_input, Messages.lb_output) Radiosim.Process.node array;
  env : Lb_env.t;
  mutable started : bool;
}

let create ?(callbacks = no_callbacks) ~params ~rng ~dual () =
  let n = Dualgraph.Dual.n dual in
  {
    params;
    dual;
    nodes = Lb_alg.network params ~rng ~n;
    env = Lb_env.create ~name:"abstract-mac" ~n callbacks;
    started = false;
  }

let busy t ~node = Lb_env.busy t.env ~node

(* Round 0 has always passed: the node's next poll hands the bcast over. *)
let request t ~node ~tag = Lb_env.request t.env ~node ~round:0 ~tag

let f_prog t = Params.t_prog_rounds t.params
let f_ack t = Params.t_ack_rounds t.params

let run ?observer ?stop ?sink ?metrics ?faults ?revive ?reception ?tick t
    ~scheduler ~rounds =
  if t.started then invalid_arg "Mac.run: already run";
  t.started <- true;
  let env = Lb_env.env t.env in
  let env =
    match tick with
    | None -> env
    | Some tick ->
        (* Fire once at the top of each round, when the engine polls the
           round's first live node for inputs — before that node's slot
           (if full) is handed over, so a request made inside the tick is
           seen by every node's poll of the same round. *)
        let last = ref (-1) in
        {
          env with
          Radiosim.Env.inputs =
            (fun ~round ~node ->
              if round > !last then begin
                last := round;
                tick ~round
              end;
              env.Radiosim.Env.inputs ~round ~node);
        }
  in
  let observer =
    match sink with
    | None -> observer
    | Some _ ->
        let _, _, observe =
          Lb_obs.wire ~faults ~sink ~metrics ~observer ~dual:t.dual
            ~params:t.params
        in
        Some observe
  in
  Radiosim.Engine.run ?observer ?stop ?sink ?metrics ?faults ?revive
    ?reception ~dual:t.dual ~scheduler ~nodes:t.nodes ~env ~rounds ()
