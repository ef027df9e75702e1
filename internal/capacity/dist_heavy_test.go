//go:build fleetheavy

package capacity

import (
	"testing"
	"time"
)

// TestDropPercentAtOracleHeavy extends TestDropPercentAt's Monte-Carlo check
// to 200k users, where each seed walks about five million arrivals.
func TestDropPercentAtOracleHeavy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 10 * time.Minute
	checkOracle(t, 200_000, spreadDist(t), cfg)
}
