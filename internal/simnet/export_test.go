package simnet

// CountedBuilds returns how many counted views net has built so far, for
// the tests of package simnet_test.
func CountedBuilds(net *Network) int64 { return net.index.views.builds.Load() }

// UnionBuilds returns how many census merges net has built so far.
func UnionBuilds(net *Network) int64 { return net.index.unions.builds.Load() }
