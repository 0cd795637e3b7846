let rec live_targets alive n = function
  | [] -> n
  | (d, _) :: rest ->
    live_targets alive (if alive d then n + 1 else n) rest

let unsafe_posts ?alive (g : Coordination_graph.t) =
  let live = match alive with Some a -> Array.get a | None -> Fun.const true in
  let unsafe = ref [] in
  for src = Array.length g.targets - 1 downto 0 do
    if live src then begin
      let posts = g.targets.(src) in
      for pi = Array.length posts - 1 downto 0 do
        if live_targets live 0 posts.(pi) > 1 then
          unsafe := (src, pi) :: !unsafe
      done
    end
  done;
  !unsafe

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
