let unsafe_posts ?alive (g : Coordination_graph.t) =
  let live = match alive with Some a -> Array.get a | None -> Fun.const true in
  let unsafe = ref [] in
  Array.iteri
    (fun src posts ->
      if live src then
        Array.iteri
          (fun pi targets ->
            if List.length (List.filter (fun (d, _) -> live d) targets) > 1
            then unsafe := (src, pi) :: !unsafe)
          posts)
    g.targets;
  List.rev !unsafe

let is_safe_query g q = List.for_all (fun (s, _) -> s <> q) (unsafe_posts g)

let is_safe g = unsafe_posts g = []

let is_unique (g : Coordination_graph.t) =
  let n = Array.length g.queries in
  n <= 1
  ||
  let r = Graphs.Scc.compute g.graph in
  r.count = 1

let classify g =
  if not (is_safe g) then `Unsafe
  else if is_unique g then `Safe_unique
  else `Safe
