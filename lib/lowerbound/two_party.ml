open Grapho

type report = {
  rounds : int;
  cut_edge_count : int;
  bits_across_cut : int;
  total_bits : int;
  bound_per_round : int;
}

let meter ?max_rounds ~model ~graph ~bob spec =
  let n = Ugraph.n graph in
  let is_bob = Array.make n false in
  List.iter (fun v -> is_bob.(v) <- true) bob;
  let cut_edge_count =
    Ugraph.fold_edges
      (fun e acc ->
        let u, v = Edge.endpoints e in
        if is_bob.(u) <> is_bob.(v) then acc + 1 else acc)
      graph 0
  in
  let bits_across_cut = ref 0 in
  let cut_meter =
    Distsim.Trace.custom (function
      | Distsim.Trace.Send { src; dst; bits; _ }
        when is_bob.(src) <> is_bob.(dst) ->
          bits_across_cut := !bits_across_cut + bits
      | _ -> ())
  in
  let states, metrics =
    Distsim.Engine.run ?max_rounds ~trace:cut_meter ~model ~graph spec
  in
  let bandwidth =
    match Distsim.Model.bandwidth model with
    | Some b -> b
    | None -> metrics.max_message_bits
  in
  ( {
      rounds = metrics.rounds;
      cut_edge_count;
      bits_across_cut = !bits_across_cut;
      total_bits = metrics.total_bits;
      bound_per_round = 2 * cut_edge_count * bandwidth;
    },
    states )

(* Min-id flooding, inlined so that the meter sees its messages. *)
type flood_state = { mutable best : int }

let meter_flood ?model ~graph ~bob () =
  let n = max 2 (Ugraph.n graph) in
  let model =
    match model with Some m -> m | None -> Distsim.Model.congest ~n ()
  in
  let bits = Distsim.Message.bits_for_id ~n in
  let broadcast out neighbors payload =
    Array.iter (fun u -> Distsim.Engine.emit out ~dst:u payload) neighbors
  in
  let spec =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex ~neighbors ~out ->
          broadcast out neighbors vertex;
          { best = vertex });
      step =
        (fun ~round:_ ~vertex st inbox ~out ->
          let improved = ref false in
          Distsim.Engine.inbox_iter
            (fun ~src:_ v ->
              if v < st.best then begin
                st.best <- v;
                improved := true
              end)
            inbox;
          if !improved then begin
            Ugraph.iter_neighbors
              (fun u -> Distsim.Engine.emit out ~dst:u st.best)
              graph vertex;
            (st, `Continue)
          end
          else (st, `Done));
      measure = (fun _ -> bits);
    }
  in
  fst (meter ~model ~graph ~bob spec)
