open Mitos_tag

let take_space request tags =
  (* Propagating more tags than the destination has space for is
     allowed (the list evicts), but baseline policies historically cap
     at the available space; we keep everything and let the list's
     eviction policy act, matching FAROS's FIFO behaviour. *)
  ignore request;
  tags

let direct_all (request : Policy.request) =
  if Policy.is_indirect request.kind then [] else request.candidates

let faros = Policy.make ~name:"faros" ~select:direct_all

let propagate_all =
  Policy.make ~name:"propagate-all" ~select:(fun request ->
      take_space request request.candidates)

let block_all = Policy.make ~name:"block-all" ~select:(fun _ -> [])

let minos_width =
  Policy.make ~name:"minos-width" ~select:(fun request ->
      match request.kind with
      | Policy.Direct_copy | Policy.Direct_compute -> request.candidates
      | Policy.Addr -> if request.width <= 1 then request.candidates else []
      | Policy.Ctrl | Policy.Ijump -> [])

let probabilistic ~seed ~p =
  let rng = Mitos_util.Rng.create seed in
  Policy.make
    ~name:(Printf.sprintf "probabilistic-%.2f" p)
    ~select:(fun request ->
      if Policy.is_indirect request.kind then
        List.filter (fun _ -> Mitos_util.Rng.bernoulli rng p) request.candidates
      else request.candidates)

let pollution_threshold ~limit =
  Policy.make
    ~name:(Printf.sprintf "threshold-%d" limit)
    ~select:(fun request ->
      if Policy.is_indirect request.kind then
        if Tag_stats.total request.stats < limit then request.candidates
        else []
      else request.candidates)

type observation = {
  step : int;
  tag : Tag.t;
  kind : Policy.flow_kind;
  under : float;
  over : float;
  propagated : bool;
}

module Decision = Mitos.Decision

let rec fill scratch params stats = function
  | [] -> ()
  | tag :: tags ->
    Decision.add scratch params tag ~count:(Tag_stats.count stats tag);
    fill scratch params stats tags

(* The steps every MITOS policy takes on a flow it decides: run Alg. 2
   over the request in the engine's scratch, in the request's decision
   context, and keep the propagated tags in the order Alg. 2 considered
   them. *)
let decide ~recompute ~observe params ~pollution (request : Policy.request) =
  let scratch = request.scratch in
  Decision.reset scratch;
  fill scratch params request.stats request.candidates;
  Decision.decide request.ctx params ~recompute ~pollution
    ~space:request.space scratch;
  (match observe with
  | None -> ()
  | Some f ->
    for k = 0 to Decision.length scratch - 1 do
      let tag = Decision.nth_tag scratch k in
      f
        {
          step = request.step;
          tag;
          kind = request.kind;
          under = Decision.nth_under scratch k;
          over = Mitos.Cost.over_submarginal params (Tag.ty tag) ~pollution;
          propagated = Decision.nth_propagated scratch k;
        }
    done);
  Decision.accepted scratch

let mitos ?(name = "mitos") ?pollution_source ?observe ?(handle_direct = false)
    ?(recompute = true) params =
  let pollution =
    match pollution_source with
    | Some f -> f
    | None -> Mitos.Cost.weighted_pollution params
  in
  Policy.make ~name ~select:(fun request ->
      if (not handle_direct) && not (Policy.is_indirect request.kind) then
        request.candidates
      else
        match request.candidates with
        | [] when not (Decision.observed request.ctx) -> []
        | _ ->
          decide ~recompute ~observe params
            ~pollution:(pollution request.stats) request)

let mitos_adaptive ?(name = "mitos-adaptive") ?(update_period = 256)
    ?(handle_direct = false) controller =
  let decisions = ref 0 in
  Policy.make ~name ~select:(fun request ->
      if (not handle_direct) && not (Policy.is_indirect request.kind) then
        request.candidates
      else begin
        (* the controller moves only tau, so the o_t-weighted pollution
           is the same before and after it observes *)
        let pollution =
          Mitos.Cost.weighted_pollution (Mitos.Adaptive.params controller)
            request.stats
        in
        incr decisions;
        if !decisions mod update_period = 0 then
          Mitos.Adaptive.observe controller ~pollution;
        decide ~recompute:true ~observe:None
          (Mitos.Adaptive.params controller)
          ~pollution request
      end)

let with_confluence_boost ?(factor = 25.0) ~pairs params =
  let boosted =
    (* precompute one boosted parameterization per watched pair *)
    List.map
      (fun (ty1, ty2) ->
        let p = Mitos.Params.with_u params ty1 (factor *. Mitos.Params.u params ty1) in
        let p = Mitos.Params.with_u p ty2 (factor *. Mitos.Params.u p ty2) in
        ((ty1, ty2), p))
      pairs
  in
  let select (request : Policy.request) =
    if not (Policy.is_indirect request.kind) then request.candidates
    else begin
      let has ty =
        List.exists
          (fun tag -> Tag_type.equal (Tag.ty tag) ty)
          request.candidates
      in
      let params =
        match
          List.find_opt (fun ((ty1, ty2), _) -> has ty1 && has ty2) boosted
        with
        | Some (_, p) -> p
        | None -> params
      in
      decide ~recompute:true ~observe:None params
        ~pollution:(Mitos.Cost.weighted_pollution params request.stats)
        request
    end
  in
  Policy.make ~name:"mitos-confluence" ~select
