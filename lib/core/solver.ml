open Mitos_tag

type item = { ty : Tag_type.t; cap : int }

let item ?cap p ty =
  { ty; cap = (match cap with Some c -> c | None -> p.Params.mem_capacity) }

let objective p items n =
  let under = ref 0.0 and pollution = ref 0.0 in
  Array.iteri
    (fun j it ->
      under := !under +. Cost.under_tag p it.ty n.(j);
      pollution := !pollution +. (Params.o p it.ty *. n.(j)))
    items;
  !under +. Cost.over_of_pollution p !pollution

let pollution_of p items n =
  let acc = ref 0.0 in
  Array.iteri (fun j it -> acc := !acc +. (Params.o p it.ty *. n.(j))) items;
  !acc

let gradient p items n =
  let pollution = pollution_of p items n in
  Array.mapi
    (fun j it -> Cost.marginal p it.ty ~n:n.(j) ~pollution)
    items

(* g(P) = tau_eff * beta * (P/N_R)^(beta-1): the common factor of the
   overtainting submarginal. *)
let g_of p pollution =
  let n_r = float_of_int p.Params.total_tag_space in
  Params.tau_effective p *. p.Params.beta
  *. ((Float.max 0.0 pollution /. n_r) ** (p.Params.beta -. 1.0))

(* n_j(g, lambda) from stationarity, clamped to [0, cap]. *)
let n_of_multipliers p it ~g ~lambda =
  let denom = (g *. Params.o p it.ty) +. lambda in
  let n =
    if denom <= 0.0 then float_of_int it.cap
    else (Params.u p it.ty /. denom) ** (1.0 /. p.Params.alpha)
  in
  Float.min (float_of_int it.cap) (Float.max 0.0 n)

(* For fixed lambda, find the fixed point P = sum_j o_j n_j(g(P), lambda).
   The RHS is non-increasing in P, so bisection on f(P) = RHS - P works. *)
let solve_for_lambda p items lambda =
  let rhs pollution =
    let g = g_of p pollution in
    let acc = ref 0.0 in
    Array.iter
      (fun it ->
        acc := !acc +. (Params.o p it.ty *. n_of_multipliers p it ~g ~lambda))
      items;
    !acc
  in
  let hi0 = rhs 0.0 in
  if hi0 <= 1e-12 then 0.0
  else begin
    let lo = ref 0.0 and hi = ref hi0 in
    (* f(lo) = rhs(0) - 0 >= 0; f(hi) = rhs(hi0) - hi0 <= 0 since rhs
       is non-increasing. *)
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if rhs mid -. mid >= 0.0 then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

let allocation_for_lambda p items lambda =
  let pollution = solve_for_lambda p items lambda in
  let g = g_of p pollution in
  Array.map (fun it -> n_of_multipliers p it ~g ~lambda) items

let solve_kkt p items =
  if Array.length items = 0 then [||]
  else begin
    let n0 = allocation_for_lambda p items 0.0 in
    let total = Array.fold_left ( +. ) 0.0 n0 in
    let budget = float_of_int p.Params.total_tag_space in
    if total <= budget then n0
    else begin
      (* Eq. (6) binds: raise lambda until the total meets the budget. *)
      let total_at lambda =
        Array.fold_left ( +. ) 0.0 (allocation_for_lambda p items lambda)
      in
      let lo = ref 0.0 and hi = ref 1.0 in
      while total_at !hi > budget && !hi < 1e18 do
        hi := !hi *. 2.0
      done;
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if total_at mid > budget then lo := mid else hi := mid
      done;
      allocation_for_lambda p items !hi
    end
  end

(* Clamp to the boxes [1e-9, cap]; the simplex constraint is handled
   by rescaling in the gradient loop. *)
let project items n =
  Array.mapi
    (fun j x -> Float.min (float_of_int items.(j).cap) (Float.max 1e-9 x))
    n

let solve_gradient ?(iterations = 20_000) ?(step = 0.05) p items =
  let k = Array.length items in
  let n = Array.make k 1.0 in
  let budget = float_of_int p.Params.total_tag_space in
  for _ = 1 to iterations do
    let grad = gradient p items n in
    Array.iteri
      (fun j g ->
        (* Diagonal preconditioning keeps the step meaningful across
           the very curved alpha-fair kernel. *)
        let scale = Float.max 1.0 n.(j) in
        n.(j) <- n.(j) -. (step *. g *. scale))
      grad;
    let n' = project items n in
    Array.blit n' 0 n 0 k;
    let total = Array.fold_left ( +. ) 0.0 n in
    if total > budget then
      Array.iteri (fun j x -> n.(j) <- x *. budget /. total) n
  done;
  n

let solve_greedy_integer ?max_total p items =
  let k = Array.length items in
  let n = Array.make k 0 in
  let budget =
    match max_total with Some m -> m | None -> p.Params.total_tag_space
  in
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ && !total < budget do
    let pollution =
      pollution_of p items (Array.map float_of_int n)
    in
    let best = ref (-1) and best_m = ref 0.0 in
    Array.iteri
      (fun j it ->
        if n.(j) < it.cap then begin
          let m =
            Cost.marginal p it.ty ~n:(float_of_int n.(j)) ~pollution
          in
          if m <= 0.0 && (!best < 0 || m < !best_m) then begin
            best := j;
            best_m := m
          end
        end)
      items;
    if !best < 0 then continue_ := false
    else begin
      n.(!best) <- n.(!best) + 1;
      incr total
    end
  done;
  n

(* -- exact integer solver (branch and bound) ------------------------ *)

type bb_stats = { nodes_explored : int; nodes_pruned : int; optimum : float }

(* Relaxed optimum over the suffix [from..k-1] given the pollution and
   copy budget already consumed by the fixed prefix. Mirrors solve_kkt
   but with offsets; used as the subtree lower bound. *)
let relaxed_suffix p items ~from ~pollution_offset ~budget =
  let k = Array.length items in
  if from >= k then ([||], 0.0)
  else begin
    let rhs lambda pollution_free =
      let g = g_of p (pollution_offset +. pollution_free) in
      let acc = ref 0.0 in
      for j = from to k - 1 do
        acc :=
          !acc +. (Params.o p items.(j).ty *. n_of_multipliers p items.(j) ~g ~lambda)
      done;
      !acc
    in
    let solve_p lambda =
      let hi0 = rhs lambda 0.0 in
      if hi0 <= 1e-12 then 0.0
      else begin
        let lo = ref 0.0 and hi = ref hi0 in
        for _ = 1 to 100 do
          let mid = 0.5 *. (!lo +. !hi) in
          if rhs lambda mid -. mid >= 0.0 then lo := mid else hi := mid
        done;
        0.5 *. (!lo +. !hi)
      end
    in
    let allocation lambda =
      let pfree = solve_p lambda in
      let g = g_of p (pollution_offset +. pfree) in
      Array.init (k - from) (fun i ->
          n_of_multipliers p items.(from + i) ~g ~lambda)
    in
    let total alloc = Array.fold_left ( +. ) 0.0 alloc in
    let alloc =
      let a0 = allocation 0.0 in
      if total a0 <= budget then a0
      else begin
        let lo = ref 0.0 and hi = ref 1.0 in
        while total (allocation !hi) > budget && !hi < 1e18 do
          hi := !hi *. 2.0
        done;
        for _ = 1 to 100 do
          let mid = 0.5 *. (!lo +. !hi) in
          if total (allocation mid) > budget then lo := mid else hi := mid
        done;
        allocation !hi
      end
    in
    (* objective of the suffix, including the over-cost *difference*
       attributable to the suffix on top of the fixed pollution *)
    let under = ref 0.0 and pfree = ref 0.0 in
    Array.iteri
      (fun i n ->
        let it = items.(from + i) in
        under := !under +. Cost.under_tag p it.ty n;
        pfree := !pfree +. (Params.o p it.ty *. n))
      alloc;
    ( alloc,
      !under
      +. Cost.over_of_pollution p (pollution_offset +. !pfree)
      -. Cost.over_of_pollution p pollution_offset )
  end

let relaxed_suffix_bound p items ~from ~pollution_offset ~budget =
  snd (relaxed_suffix p items ~from ~pollution_offset ~budget)

let solve_branch_and_bound ?(node_limit = 200_000) p items =
  let k = Array.length items in
  let budget_total = float_of_int p.Params.total_tag_space in
  (* incumbent from the greedy heuristic *)
  let best = Array.map float_of_int (solve_greedy_integer p items) in
  let best_val = ref (objective p items best) in
  let explored = ref 0 and pruned = ref 0 in
  let current = Array.make k 0.0 in
  (* prefix cost/pollution helpers *)
  let rec branch d ~under_fixed ~pollution_fixed ~used =
    incr explored;
    if !explored > node_limit then
      invalid_arg "Solver.solve_branch_and_bound: node limit exceeded";
    if d = k then begin
      let v = under_fixed +. Cost.over_of_pollution p pollution_fixed in
      if v < !best_val then begin
        best_val := v;
        Array.blit current 0 best 0 k
      end
    end
    else begin
      let it = items.(d) in
      let budget = budget_total -. used in
      let bound_with v =
        (* lower bound of the subtree with n_d = v *)
        let under = under_fixed +. Cost.under_tag p it.ty v in
        let pollution = pollution_fixed +. (Params.o p it.ty *. v) in
        under
        +. Cost.over_of_pollution p pollution
        +. relaxed_suffix_bound p items ~from:(d + 1)
             ~pollution_offset:pollution ~budget:(budget -. v)
      in
      let try_value v =
        if v < 0.0 || v > float_of_int it.cap || v > budget then `Infeasible
        else begin
          let bound = bound_with v in
          if bound >= !best_val -. 1e-9 then begin
            incr pruned;
            `Pruned
          end
          else begin
            current.(d) <- v;
            branch (d + 1)
              ~under_fixed:(under_fixed +. Cost.under_tag p it.ty v)
              ~pollution_fixed:(pollution_fixed +. (Params.o p it.ty *. v))
              ~used:(used +. v);
            `Explored
          end
        end
      in
      (* centre the search on this variable's component of the relaxed
         optimum of the whole remaining subproblem, and walk outward *)
      let centre =
        let alloc, _ =
          relaxed_suffix p items ~from:d ~pollution_offset:pollution_fixed
            ~budget
        in
        if Array.length alloc = 0 then 0.0
        else
          Float.round
            (Float.min (float_of_int it.cap) (Float.max 0.0 alloc.(0)))
      in
      ignore (try_value centre);
      (* the bound is convex in v but its minimum need not sit exactly
         at the relaxed centre; tolerate a few consecutive prunes
         before declaring a direction exhausted *)
      let patience = 4 in
      let rec walk dir step misses =
        if misses < patience then begin
          let v = centre +. (dir *. step) in
          match try_value v with
          | `Explored -> walk dir (step +. 1.0) 0
          | `Pruned -> walk dir (step +. 1.0) (misses + 1)
          | `Infeasible -> ()
        end
      in
      walk 1.0 1.0 0;
      walk (-1.0) 1.0 0
    end
  in
  branch 0 ~under_fixed:0.0 ~pollution_fixed:0.0 ~used:0.0;
  ( Array.map int_of_float best,
    { nodes_explored = !explored; nodes_pruned = !pruned; optimum = !best_val }
  )

let solve_brute_force ~max_n p items =
  let k = Array.length items in
  let points = float_of_int (max_n + 1) ** float_of_int k in
  if points > 1e7 then
    invalid_arg "Solver.solve_brute_force: search space too large";
  let best = Array.make k 0 in
  let best_val = ref infinity in
  let current = Array.make k 0 in
  let rec go j =
    if j = k then begin
      let total = Array.fold_left ( + ) 0 current in
      if total <= p.Params.total_tag_space then begin
        let v = objective p items (Array.map float_of_int current) in
        if v < !best_val then begin
          best_val := v;
          Array.blit current 0 best 0 k
        end
      end
    end
    else
      for v = 0 to min max_n items.(j).cap do
        current.(j) <- v;
        go (j + 1)
      done
  in
  go 0;
  best
