package obs

import (
	"context"
	"log/slog"
)

// NopLogger returns a logger that discards everything. Library layers
// (the journaled DynamicIndex, the WAL) default to it when no logger is
// injected, so they stay silent unless the embedding process opts in.
func NopLogger() *slog.Logger { return slog.New(discardHandler{}) }

// discardHandler is a hand-rolled no-op slog.Handler. (The stdlib's
// slog.DiscardHandler arrived after the Go version this module
// targets.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
