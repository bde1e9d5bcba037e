(* Fixpoint, node table and shortest-chain search shared by the
   whole-program passes. *)

module type RANKED = sig
  type t

  val rank : t -> int
end

module type S = sig
  type t

  val rank : t -> int
  val join : t -> t -> t
  val leq : t -> t -> bool
  val solve : base:t array -> edges:(int * int) list -> t array
end

module Make (R : RANKED) = struct
  type t = R.t

  let rank = R.rank
  let join a b = if rank a >= rank b then a else b
  let leq a b = rank a <= rank b

  let solve ~base ~edges =
    let v = Array.copy base in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (i, j) ->
          let w = join v.(i) v.(j) in
          if rank w > rank v.(i) then begin
            v.(i) <- w;
            changed := true
          end)
        edges
    done;
    v
end

type node = { fkey : string; funit : Callgraph.unit_info; body : Parsetree.expression }

type table = { nodes : node array; keys : string array; index : (string, int) Hashtbl.t }

let table g =
  let nodes =
    Callgraph.fold_funs g [] (fun acc ~fkey ~funit ~body -> { fkey; funit; body } :: acc)
    |> List.rev |> Array.of_list
  in
  (* deterministic: lookup-only table keyed by node name, never iterated *)
  let index = Hashtbl.create 256 in
  Array.iteri (fun i nd -> Hashtbl.replace index nd.fkey i) nodes;
  { nodes; keys = Array.map (fun nd -> nd.fkey) nodes; index }

let nodes t = t.nodes
let keys t = t.keys
let find t k = Hashtbl.find_opt t.index k

(* [parent.(i)]: -2 unreached, -1 a source, otherwise the predecessor on
   a shortest chain. *)
type paths = int array

let shortest ~n ~edges ~sources =
  let out = Array.make (max n 1) [] in
  List.iter (fun (i, j) -> out.(i) <- j :: out.(i)) edges;
  Array.iteri (fun i l -> out.(i) <- List.sort_uniq compare l) out;
  let parent = Array.make (max n 1) (-2) in
  let q = Queue.create () in
  List.iter
    (fun i ->
      if parent.(i) = -2 then begin
        parent.(i) <- -1;
        Queue.add i q
      end)
    sources;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun j ->
        if parent.(j) = -2 then begin
          parent.(j) <- i;
          Queue.add j q
        end)
      out.(i)
  done;
  parent

let reached parent i = parent.(i) >= -1

let chain parent ~names i =
  let rec go i acc =
    let acc = names.(i) :: acc in
    if parent.(i) < 0 then acc else go parent.(i) acc
  in
  go i []
