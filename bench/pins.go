package main

// pins are the outputs each workload must reproduce at full scale from the
// default seed's inputs (paper-fig5-8's inputs are always those). At any
// other seed only the cross-checks apply: the reps of one invocation agree,
// twins agree with the rep, the serial sweep agrees with the pooled one, and
// the service agrees with a fresh roster. tree-50k-domains shares
// tree-50k's pin: the domain runner must reproduce the serial run.
var pins = map[string]string{
	"paper-fig5-8.tables": "a50eb9d38b85d762",
	"tree-50k.result":     "c0059bbdf48861e3",
	"plan-1m.plans":       "354eb434f0910540",
	"svc-churn.table":     "8c5d0a2c8e4a5f2c",
}
