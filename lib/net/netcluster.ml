module Cluster = Mitos_distrib.Cluster

type t = { cluster : Cluster.t; clients : Client.t array }

let wire_fail op = function
  | Ok v -> v
  | Error err ->
    failwith (Printf.sprintf "Netcluster: %s failed: %s" op
                (Client.error_to_string err))

let close t = Array.iter Client.close t.clients

let create ?(config = Mitos_dift.Engine.default_config) ?client_timeout
    ?(index_base = 0) ~params ~sync_period ~endpoint builts =
  if index_base < 0 then invalid_arg "Netcluster.create: negative index_base";
  let connect i =
    match Client.connect ?timeout:client_timeout endpoint with
    | Ok c -> c
    | Error err ->
      failwith
        (Printf.sprintf "Netcluster: node %d cannot reach %s: %s"
           (index_base + i)
           (Transport.endpoint_to_string endpoint)
           (Client.error_to_string err))
  in
  let clients = Array.of_list (List.mapi (fun i _ -> connect i) builts) in
  (* each slot's traffic goes through its own node's connection *)
  let client slot = clients.(slot - index_base) in
  let est =
    {
      Cluster.publish =
        (fun ~slot v ->
          ignore
            (wire_fail "publish" (Client.publish (client slot) ~node:slot v)));
      contribution =
        (fun ~slot ->
          wire_fail "read_node" (Client.read_node (client slot) slot));
      global =
        (fun ~slot -> wire_fail "read_global" (Client.global (client slot)));
    }
  in
  match
    Cluster.create_over est ~first_slot:index_base ~config ~params
      ~sync_period builts
  with
  | cluster -> { cluster; clients }
  | exception e ->
    Array.iter Client.close clients;
    raise e

let cluster t = t.cluster
