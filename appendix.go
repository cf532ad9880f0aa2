package userv6

// Appendix A of the paper re-runs the user-centric analyses on
// pre-pandemic data to check that the COVID-19 lockdowns did not change
// the conclusions. PandemicComparison reproduces that robustness check:
// the same metrics over a February (pre-lockdown) week and the April
// (lockdown) analysis week.

import (
	"userv6/internal/netaddr"
	"userv6/internal/simtime"
)

// PandemicWindowMetrics are the Appendix-A metrics for one week window.
type PandemicWindowMetrics struct {
	From, To simtime.Day
	// Addresses per user (weekly medians, Appendix A.3).
	MedianV4Addrs, MedianV6Addrs int
	// Single-/64 user share (prefix diversity, Appendix A.4).
	SingleSlash64Share float64
	// Day-fresh pair shares at the window end (Appendix A.5), with a
	// lookback capped at the window start.
	FreshV4, FreshV6 float64
}

// PandemicComparison computes the metrics for the Feb 12-18 week (days
// 20-26) and the Apr 13-19 analysis week.
type PandemicComparison struct {
	Pre, Lockdown PandemicWindowMetrics
}

// ComparePandemic registers the Appendix-A robustness check.
func (st *Study) ComparePandemic() func() PandemicComparison {
	pre := st.windowMetrics(20, 26)
	lockdown := st.windowMetrics(simtime.AnalysisWeekStart, simtime.AnalysisWeekEnd)
	return func() PandemicComparison { return PandemicComparison{Pre: pre(), Lockdown: lockdown()} }
}

func (st *Study) windowMetrics(from, to simtime.Day) func() PandemicWindowMetrics {
	uc := st.userCentric(benignPop, from, to)
	// Lifespans with a 14-day lookback so both windows use the same
	// horizon (the February window has less history before it).
	ls := st.lifespans(benignPop, to, 14, 32, 128)
	return func() PandemicWindowMetrics {
		m := PandemicWindowMetrics{From: from, To: to}
		m.MedianV4Addrs = uc.AddrsPerUser(netaddr.IPv4).Median()
		m.MedianV6Addrs = uc.AddrsPerUser(netaddr.IPv6).Median()
		for _, span := range uc.PrefixSpans([]int{64}) {
			if span.Length == 64 {
				m.SingleSlash64Share = span.One
			}
		}
		if h := ls.AgeHist(netaddr.IPv4, 32); h.N() > 0 {
			m.FreshV4 = h.CDFAt(0)
		}
		if h := ls.AgeHist(netaddr.IPv6, 128); h.N() > 0 {
			m.FreshV6 = h.CDFAt(0)
		}
		return m
	}
}
