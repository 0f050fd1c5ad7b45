package ums

import "repro/internal/core"

// Repair runs the §4.2.2 repair hook KTS calls after a counter
// correction.
func (s *Service) Repair(k core.Key, oldTS, newTS core.Timestamp) { s.repair(k, oldTS, newTS) }
