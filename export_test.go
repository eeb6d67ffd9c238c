package replobj

// WithLogRetain sets how many delivered messages each member keeps for
// retransmission beyond its last checkpoint (gcs.Config.LogRetain, default
// 4096), so that a test can push a rejoiner behind the log with a few
// requests and make it rejoin by snapshot.
func WithLogRetain(n int) GroupOption {
	return func(g *groupConfig) { g.logRetain = n }
}
