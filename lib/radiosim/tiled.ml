let default_tiles () = 1 + Parallel.Budget.suggested_extra ()

let run ?observer ?stop ?sink ?metrics ?faults ?revive ?tiles ?reception ~dual
    ~scheduler ~nodes ~env ~rounds () =
  (match tiles with
  | Some k when k < 1 -> invalid_arg "Tiled.run: tiles must be >= 1"
  | _ -> ());
  let tiles =
    min
      (match tiles with Some k -> k | None -> default_tiles ())
      (max (Dualgraph.Dual.n dual) 1)
  in
  Round.run ~who:"Tiled.run" ~tiles ~source:(Round.Oblivious scheduler)
    ?observer ?stop ?sink ?metrics ?faults ?revive ?reception ~dual ~nodes ~env
    ~rounds ()
