"""A replicated command log over a wireless mesh.

Scenario: nine controllers in a 3x3 mesh each want their configuration
commands applied network-wide in a single agreed order -- the textbook
replicated state machine, here running on nothing but the abstract MAC
layer's acknowledged broadcast. Each log slot is one wPAXOS decree;
leader election and the routing trees are shared across slots, so
later slots commit much faster than the first (the Multi-Paxos
amortization).

Run:  python examples/replicated_log.py
"""

from repro import RandomDelayScheduler, build_simulation, grid
from repro.apps import ReplicatedLogNode


def main() -> None:
    graph = grid(3, 3)
    log_length = 5

    def replica(node):
        process = ReplicatedLogNode(uid=node + 1, n=graph.n)
        for k in range(log_length):
            process.add_command(f"set(param{node}, {k})")
        return process

    simulator = build_simulation(
        graph, replica, RandomDelayScheduler(f_ack=1.0, seed=7))
    replicas = [simulator.process_at(node) for node in graph.nodes]

    def committed(slot, replicas_holding=all):
        return lambda sim: replicas_holding(slot in r.log for r in replicas)

    # The log never decides: run it slot by slot until every replica
    # holds the slot, resuming the same simulator each time. The leader
    # sends each slot's decide with the next slot's proposal, so once
    # the last slot is chosen (one replica holds it) it is flushed.
    times = []
    for slot in range(log_length):
        if slot == log_length - 1:
            simulator.run(max_time=5_000.0, stop_when_all_decided=False,
                          stop_predicate=committed(slot, any))
            for r in replicas:
                r.flush()
        simulator.run(max_time=5_000.0, stop_when_all_decided=False,
                      stop_predicate=committed(slot))
        times.append(simulator.now)

    reference = replicas[0].log
    identical = all(r.log == reference for r in replicas)
    print(f"replicas: {graph.n}, slots: {log_length}")
    print(f"all replicas committed identical logs: {identical}")
    print("agreed command sequence:")
    for slot in range(log_length):
        print(f"  [{slot}] {reference[slot]}  (everywhere by "
              f"t={times[slot]:.1f})")
    print(f"first slot took {times[0]:.1f}; each later one "
          f"{(times[-1] - times[0]) / (log_length - 1):.1f} on average "
          f"({simulator.trace.broadcast_count()} broadcasts)")


if __name__ == "__main__":
    main()
