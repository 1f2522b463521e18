package main

// utsNodesLow and utsNodesHigh bound the size of every tree the uts
// workload may be given: 1.6 M nodes ± 0.5%.
const (
	utsNodesLow  = 1_592_000
	utsNodesHigh = 1_608_000
)

// utsRoots are the root seeds r in 1–8620 and 10000–15644 whose
// geometric tree (b0 = 4, depth 14) has a size within those bounds,
// found by counting every tree in those ranges sequentially. About one
// root in 500 qualifies.
var utsRoots = [...]uint32{
	514, 772, 2159, 2447, 2668, 2800, 4318, 4890, 5731, 6225,
	6432, 7448, 8620, 10877, 12660, 12942, 13272, 13523, 14157, 14285,
	14340, 14870, 14963, 14997, 15644,
}
