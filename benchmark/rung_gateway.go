package main

// Rung: gateway. Entry point pinned: (*gateway.Server).ServeHTTP(w, r).
//
// The gateway is only ever a top rung: the rest workload's own requests
// are its calls, so its time comes from their spans, one name per path.
const (
	spanGatewayProduce = "gateway.produce"
	spanGatewayConsume = "gateway.consume"
	spanGatewaySQL     = "gateway.sql"
)

func (c *climber) gatewayRung() {
	c.fromSpans("produce", "gateway", spanGatewayProduce)
	c.fromSpans("consume", "gateway", spanGatewayConsume)
	c.fromSpans("query", "gateway", spanGatewaySQL)
}
